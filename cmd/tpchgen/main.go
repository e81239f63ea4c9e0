// Command tpchgen generates the TPC-H-shaped dataset as CSV files, one per
// table, for inspection or external use.
//
// Usage:
//
//	tpchgen -class 100MB -out ./data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
	"energydb/internal/tpch"
)

func main() {
	var (
		classFlag = flag.String("class", "100MB", "size class: 10MB, 100MB, 500MB, 1GB")
		out       = flag.String("out", "tpch-data", "output directory")
		seed      = flag.Int64("seed", 7421, "generator seed")
	)
	flag.Parse()

	class, err := tpch.ParseClass(*classFlag)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	fmt.Printf("Generating %s dataset (seed %d)...\n", class, *seed)
	d := tpch.Generate(class, *seed)

	tables := []struct {
		name   string
		schema *catalog.Schema
		rows   []value.Row
	}{
		{"region", tpch.RegionSchema, d.Region},
		{"nation", tpch.NationSchema, d.Nation},
		{"supplier", tpch.SupplierSchema, d.Supplier},
		{"customer", tpch.CustomerSchema, d.Customer},
		{"part", tpch.PartSchema, d.Part},
		{"partsupp", tpch.PartSuppSchema, d.PartSupp},
		{"orders", tpch.OrdersSchema, d.Orders},
		{"lineitem", tpch.LineitemSchema, d.Lineitem},
	}
	total := 0
	for _, t := range tables {
		path := filepath.Join(*out, t.name+".csv")
		if err := writeCSV(path, t.schema, t.rows); err != nil {
			fatal(err)
		}
		fmt.Printf("  %-10s %8d rows -> %s\n", t.name, len(t.rows), path)
		total += len(t.rows)
	}
	fmt.Printf("Done: %d rows total.\n", total)
}

func writeCSV(path string, schema *catalog.Schema, rows []value.Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var sb strings.Builder
	sb.WriteString(strings.Join(schema.Names(), ",") + "\n")
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte(',')
			}
			s := v.String()
			if strings.ContainsAny(s, ",\"\n") {
				s = `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
			}
			sb.WriteString(s)
		}
		sb.WriteByte('\n')
		if sb.Len() > 1<<20 {
			if _, err := f.WriteString(sb.String()); err != nil {
				return err
			}
			sb.Reset()
		}
	}
	_, err = f.WriteString(sb.String())
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpchgen:", err)
	os.Exit(1)
}
