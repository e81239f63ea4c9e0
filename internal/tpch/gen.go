// Package tpch provides a deterministic TPC-H-shaped workload: a data
// generator for the eight-table schema, size classes matching the paper's
// 100MB/500MB/1GB datasets (scaled 1:10, see DESIGN.md), the 22 read
// queries as executor plans, and the seven basic query operations of
// Section 3.2.
package tpch

import (
	"fmt"
	"math/rand"
	"strings"

	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
)

// SizeClass selects a dataset size. Class names keep the paper's labels;
// actual row counts are scaled 1:10 so experiments run on one core.
type SizeClass int

// Dataset size classes. Size10MB is the ARM proof-of-concept dataset of
// Section 4.3.
const (
	Size10MB SizeClass = iota
	Size100MB
	Size500MB
	Size1GB
)

// String names the class with the paper's label.
func (s SizeClass) String() string {
	switch s {
	case Size10MB:
		return "10MB"
	case Size100MB:
		return "100MB"
	case Size500MB:
		return "500MB"
	case Size1GB:
		return "1GB"
	default:
		return "unknown"
	}
}

// ParseClass resolves a dataset size class label.
func ParseClass(s string) (SizeClass, error) {
	for c := Size10MB; c <= Size1GB; c++ {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown class %q (want 10MB, 100MB, 500MB or 1GB)", s)
}

// scaleFactor returns the effective TPC-H scale factor of the class.
func (s SizeClass) scaleFactor() float64 {
	switch s {
	case Size10MB:
		return 0.001
	case Size100MB:
		return 0.01
	case Size500MB:
		return 0.05
	case Size1GB:
		return 0.1
	default:
		return 0.01
	}
}

// Cardinalities returns the table row counts of the class.
type Cardinalities struct {
	Supplier int
	Part     int
	PartSupp int
	Customer int
	Orders   int
	Lineitem int // approximate; actual count varies with per-order lines
	Nation   int
	Region   int
}

// CardinalitiesFor computes the row counts of a size class.
func CardinalitiesFor(class SizeClass) Cardinalities {
	sf := class.scaleFactor()
	n := func(base int) int {
		v := int(float64(base) * sf)
		if v < 4 {
			v = 4
		}
		return v
	}
	nMin := func(base, floor int) int {
		v := n(base)
		if v < floor {
			v = floor
		}
		return v
	}
	return Cardinalities{
		Supplier: nMin(10_000, 25),
		Part:     n(200_000),
		PartSupp: n(800_000),
		Customer: n(150_000),
		Orders:   n(1_500_000),
		Lineitem: n(6_000_000),
		Nation:   25,
		Region:   5,
	}
}

// Date range: days since 1992-01-01 (the TPC-H epoch); orders span 1992
// through mid-1998.
const (
	dateEpochDays = 0
	dateMaxDays   = 2405 // ~1998-08-02
)

// MkDate converts (year, month-ish) into epoch days for query parameters:
// years since 1992 times 365 plus day offset. It intentionally ignores leap
// days; the generator uses the same calendar, so selectivities match.
func MkDate(year, day int) int64 {
	return int64((year-1992)*365 + day)
}

// Dictionary fragments used by the generator.
var (
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers = []string{"SM CASE", "SM BOX", "SM PACK", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PKG"}
	brands     = []string{"Brand#11", "Brand#12", "Brand#22", "Brand#23", "Brand#33", "Brand#34", "Brand#44", "Brand#45"}
	types      = []string{
		"STANDARD ANODIZED TIN", "STANDARD BURNISHED COPPER", "SMALL PLATED BRASS",
		"MEDIUM POLISHED STEEL", "ECONOMY ANODIZED STEEL", "LARGE BRUSHED NICKEL",
		"PROMO POLISHED COPPER", "PROMO BURNISHED TIN", "ECONOMY PLATED STEEL",
	}
	colors = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
		"blue", "chocolate", "coral", "cream", "forest", "green", "honeydew",
		"indian", "ivory", "khaki", "lavender", "linen", "green",
	}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
)

// Schemas for the eight tables (simplified column sets covering everything
// the 22 queries touch).
var (
	RegionSchema = catalog.NewSchema(
		catalog.Column{Name: "r_regionkey", Type: value.TypeInt},
		catalog.Column{Name: "r_name", Type: value.TypeStr, Width: 16},
	)
	NationSchema = catalog.NewSchema(
		catalog.Column{Name: "n_nationkey", Type: value.TypeInt},
		catalog.Column{Name: "n_name", Type: value.TypeStr, Width: 16},
		catalog.Column{Name: "n_regionkey", Type: value.TypeInt},
	)
	SupplierSchema = catalog.NewSchema(
		catalog.Column{Name: "s_suppkey", Type: value.TypeInt},
		catalog.Column{Name: "s_name", Type: value.TypeStr, Width: 16},
		catalog.Column{Name: "s_nationkey", Type: value.TypeInt},
		catalog.Column{Name: "s_acctbal", Type: value.TypeFloat},
		catalog.Column{Name: "s_comment", Type: value.TypeStr, Width: 32},
	)
	CustomerSchema = catalog.NewSchema(
		catalog.Column{Name: "c_custkey", Type: value.TypeInt},
		catalog.Column{Name: "c_name", Type: value.TypeStr, Width: 16},
		catalog.Column{Name: "c_nationkey", Type: value.TypeInt},
		catalog.Column{Name: "c_mktsegment", Type: value.TypeStr, Width: 12},
		catalog.Column{Name: "c_acctbal", Type: value.TypeFloat},
		catalog.Column{Name: "c_phone", Type: value.TypeStr, Width: 16},
	)
	PartSchema = catalog.NewSchema(
		catalog.Column{Name: "p_partkey", Type: value.TypeInt},
		catalog.Column{Name: "p_name", Type: value.TypeStr, Width: 24},
		catalog.Column{Name: "p_brand", Type: value.TypeStr, Width: 12},
		catalog.Column{Name: "p_type", Type: value.TypeStr, Width: 28},
		catalog.Column{Name: "p_size", Type: value.TypeInt},
		catalog.Column{Name: "p_container", Type: value.TypeStr, Width: 12},
		catalog.Column{Name: "p_retailprice", Type: value.TypeFloat},
	)
	PartSuppSchema = catalog.NewSchema(
		catalog.Column{Name: "ps_partkey", Type: value.TypeInt},
		catalog.Column{Name: "ps_suppkey", Type: value.TypeInt},
		catalog.Column{Name: "ps_availqty", Type: value.TypeInt},
		catalog.Column{Name: "ps_supplycost", Type: value.TypeFloat},
	)
	OrdersSchema = catalog.NewSchema(
		catalog.Column{Name: "o_orderkey", Type: value.TypeInt},
		catalog.Column{Name: "o_custkey", Type: value.TypeInt},
		catalog.Column{Name: "o_orderstatus", Type: value.TypeStr, Width: 4},
		catalog.Column{Name: "o_totalprice", Type: value.TypeFloat},
		catalog.Column{Name: "o_orderdate", Type: value.TypeDate},
		catalog.Column{Name: "o_orderpriority", Type: value.TypeStr, Width: 16},
		catalog.Column{Name: "o_shippriority", Type: value.TypeInt},
	)
	LineitemSchema = catalog.NewSchema(
		catalog.Column{Name: "l_orderkey", Type: value.TypeInt},
		catalog.Column{Name: "l_partkey", Type: value.TypeInt},
		catalog.Column{Name: "l_suppkey", Type: value.TypeInt},
		catalog.Column{Name: "l_linenumber", Type: value.TypeInt},
		catalog.Column{Name: "l_quantity", Type: value.TypeFloat},
		catalog.Column{Name: "l_extendedprice", Type: value.TypeFloat},
		catalog.Column{Name: "l_discount", Type: value.TypeFloat},
		catalog.Column{Name: "l_tax", Type: value.TypeFloat},
		catalog.Column{Name: "l_returnflag", Type: value.TypeStr, Width: 4},
		catalog.Column{Name: "l_linestatus", Type: value.TypeStr, Width: 4},
		catalog.Column{Name: "l_shipdate", Type: value.TypeDate},
		catalog.Column{Name: "l_commitdate", Type: value.TypeDate},
		catalog.Column{Name: "l_receiptdate", Type: value.TypeDate},
		catalog.Column{Name: "l_shipinstruct", Type: value.TypeStr, Width: 20},
		catalog.Column{Name: "l_shipmode", Type: value.TypeStr, Width: 12},
	)
)

// Data holds generated rows per table, ready for bulk loading.
type Data struct {
	Class    SizeClass
	Region   []value.Row
	Nation   []value.Row
	Supplier []value.Row
	Customer []value.Row
	Part     []value.Row
	PartSupp []value.Row
	Orders   []value.Row
	Lineitem []value.Row
}

// Rows returns the total generated row count.
func (d *Data) Rows() int {
	return len(d.Region) + len(d.Nation) + len(d.Supplier) + len(d.Customer) +
		len(d.Part) + len(d.PartSupp) + len(d.Orders) + len(d.Lineitem)
}

// Generate produces a deterministic dataset for the class.
func Generate(class SizeClass, seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	card := CardinalitiesFor(class)
	d := &Data{Class: class}

	for i := 0; i < card.Region; i++ {
		d.Region = append(d.Region, value.Row{
			value.Int(int64(i)), value.Str(regionNames[i%len(regionNames)]),
		})
	}
	for i := 0; i < card.Nation; i++ {
		d.Nation = append(d.Nation, value.Row{
			value.Int(int64(i)),
			value.Str(nationNames[i%len(nationNames)]),
			value.Int(int64(i % card.Region)),
		})
	}
	for i := 0; i < card.Supplier; i++ {
		d.Supplier = append(d.Supplier, value.Row{
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("Supplier#%06d", i)),
			value.Int(int64(i % card.Nation)), // round-robin: every nation has suppliers
			value.Float(float64(rng.Intn(1_000_000))/100 - 1000),
			value.Str(comment(rng)),
		})
	}
	for i := 0; i < card.Customer; i++ {
		d.Customer = append(d.Customer, value.Row{
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("Customer#%06d", i)),
			value.Int(int64(i % card.Nation)), // round-robin: every nation has customers
			value.Str(segments[rng.Intn(len(segments))]),
			value.Float(float64(rng.Intn(1_100_000))/100 - 1000),
			value.Str(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+rng.Intn(25), rng.Intn(1000), rng.Intn(1000), rng.Intn(10000))),
		})
	}
	for i := 0; i < card.Part; i++ {
		d.Part = append(d.Part, value.Row{
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("%s %s part %06d", colors[rng.Intn(len(colors))], colors[rng.Intn(len(colors))], i)),
			value.Str(brands[rng.Intn(len(brands))]),
			value.Str(types[rng.Intn(len(types))]),
			value.Int(int64(1 + rng.Intn(50))),
			value.Str(containers[rng.Intn(len(containers))]),
			value.Float(900 + float64(i%200) + float64(rng.Intn(100))/100),
		})
	}
	// Four suppliers per part, TPC-H style.
	for i := 0; i < card.Part; i++ {
		for j := 0; j < 4 && len(d.PartSupp) < card.PartSupp; j++ {
			d.PartSupp = append(d.PartSupp, value.Row{
				value.Int(int64(i)),
				value.Int(int64((i + j*card.Part/4) % max(card.Supplier, 1))),
				value.Int(int64(1 + rng.Intn(9999))),
				value.Float(float64(rng.Intn(100_000)) / 100),
			})
		}
	}
	lineID := 0
	for i := 0; i < card.Orders; i++ {
		custkey := rng.Intn(max(card.Customer, 1))
		orderdate := int64(rng.Intn(dateMaxDays - 151))
		status := "O"
		if orderdate < dateMaxDays/2 {
			status = "F"
		}
		nLines := 1 + rng.Intn(7)
		total := 0.0
		for ln := 0; ln < nLines; ln++ {
			partkey := rng.Intn(max(card.Part, 1))
			suppkey := (partkey + (ln%4)*card.Part/4) % max(card.Supplier, 1)
			qty := float64(1 + rng.Intn(50))
			price := (900 + float64(partkey%200)) * qty / 10
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := orderdate + int64(1+rng.Intn(121))
			commit := orderdate + int64(30+rng.Intn(61))
			receipt := ship + int64(1+rng.Intn(30))
			rf := "N"
			if receipt <= dateMaxDays*6/10 {
				if rng.Intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			ls := "O"
			if ship <= dateMaxDays*6/10 {
				ls = "F"
			}
			d.Lineitem = append(d.Lineitem, value.Row{
				value.Int(int64(i)),
				value.Int(int64(partkey)),
				value.Int(int64(suppkey)),
				value.Int(int64(ln + 1)),
				value.Float(qty),
				value.Float(price),
				value.Float(disc),
				value.Float(tax),
				value.Str(rf),
				value.Str(ls),
				value.Date(ship),
				value.Date(commit),
				value.Date(receipt),
				value.Str(instructs[rng.Intn(len(instructs))]),
				value.Str(shipmodes[rng.Intn(len(shipmodes))]),
			})
			total += price * (1 - disc)
			lineID++
		}
		d.Orders = append(d.Orders, value.Row{
			value.Int(int64(i)),
			value.Int(int64(custkey)),
			value.Str(status),
			value.Float(total),
			value.Date(orderdate),
			value.Str(priorities[rng.Intn(len(priorities))]),
			value.Int(int64(rng.Intn(2))),
		})
	}
	return d
}

func comment(rng *rand.Rand) string {
	words := []string{"carefully", "quickly", "final", "special", "pending", "ironic", "express", "Customer", "Complaints", "regular", "deposits"}
	return words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
