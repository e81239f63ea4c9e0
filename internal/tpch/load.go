package tpch

import (
	"energydb/internal/db/engine"
)

// Load creates the eight TPC-H tables in the engine, bulk-loads the
// dataset and builds the indexes the query plans rely on (primary keys and
// the frequently-joined foreign keys). It returns nothing; tables are
// reachable through the engine by name.
func Load(e *engine.Engine, d *Data) {
	region := e.CreateTable("region", RegionSchema)
	nation := e.CreateTable("nation", NationSchema)
	supplier := e.CreateTable("supplier", SupplierSchema)
	customer := e.CreateTable("customer", CustomerSchema)
	part := e.CreateTable("part", PartSchema)
	partsupp := e.CreateTable("partsupp", PartSuppSchema)
	orders := e.CreateTable("orders", OrdersSchema)
	lineitem := e.CreateTable("lineitem", LineitemSchema)

	e.Load(region, d.Region)
	e.Load(nation, d.Nation)
	e.Load(supplier, d.Supplier)
	e.Load(customer, d.Customer)
	e.Load(part, d.Part)
	e.Load(partsupp, d.PartSupp)
	e.Load(orders, d.Orders)
	e.Load(lineitem, d.Lineitem)

	// Primary-key indexes.
	e.CreateIndex(region, "r_regionkey")
	e.CreateIndex(nation, "n_nationkey")
	e.CreateIndex(supplier, "s_suppkey")
	e.CreateIndex(customer, "c_custkey")
	e.CreateIndex(part, "p_partkey")
	e.CreateIndex(partsupp, "ps_partkey")
	e.CreateIndex(orders, "o_orderkey")
	// Foreign-key / attribute indexes used by the plans.
	e.CreateIndex(orders, "o_custkey")
	e.CreateIndex(orders, "o_orderdate")
	e.CreateIndex(lineitem, "l_orderkey")
	e.CreateIndex(lineitem, "l_partkey")
	e.CreateIndex(lineitem, "l_shipdate")
}

// Setup generates a dataset and loads it: the one-call path used by the
// experiments. The data seed is fixed so every engine sees identical data.
func Setup(e *engine.Engine, class SizeClass) *Data {
	d := Generate(class, 7421)
	Load(e, d)
	return d
}
