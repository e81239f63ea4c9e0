package storage

import (
	"math/rand"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// lineitemShape has TPC-H lineitem's column widths (168 bytes a row-major
// slot behind a 24-byte header) and q1Cols the seven columns Q1 reads of it:
// 48 bytes, 72 with the header. Columns 8 and 9 (l_returnflag,
// l_linestatus), 13 and 14 (l_shipinstruct, l_shipmode) are strings.
func lineitemShape() (*catalog.Schema, []int) {
	var cols []catalog.Column
	for j, w := range []int{8, 8, 8, 8, 8, 8, 8, 8, 4, 4, 8, 8, 8, 16, 16, 8} {
		c := catalog.Column{Name: "c", Type: value.TypeInt, Width: w}
		if lineitemStr(j) {
			c.Type = value.TypeStr
		}
		cols = append(cols, c)
	}
	return catalog.NewSchema(cols...), []int{4, 5, 6, 7, 8, 9, 10}
}

// lineitemStr reports whether column j of lineitemShape is a string.
func lineitemStr(j int) bool { return j == 8 || j == 9 || j == 13 || j == 14 }

// BenchmarkHeapScanLayout batch-scans Q1's columns of a lineitem-shaped heap
// of 1.3 × the i7's 8 MB L3 (as row-major slots), laid out row-major, in
// column runs, and in column runs whose string columns the bulk load codes
// (columns-coded: each string column takes a few values, as TPC-H's do), and
// reports per scan the lines the scan loads and the lines it fills from DRAM
// (demand misses and DRAM→L3 prefetches), and the lines it loads per row.
// Two scans warm the caches first; the simulation is deterministic, so one
// scan is exact.
func BenchmarkHeapScanLayout(b *testing.B) {
	for _, c := range []struct {
		name   string
		layout Layout
		coded  bool
	}{{"rows", Rows, false}, {"columns", Columns, false}, {"columns-coded", Columns, true}} {
		b.Run(c.name, func(b *testing.B) {
			p := cpusim.IntelI7_4790()
			dev := NewDevice(cpusim.NewMachine(p), 256<<20)
			dev.M.Hier.SetPrefetchEnabled(true)
			schema, q1 := lineitemShape()
			hf := NewHeapFile(dev, NewBufferPool(dev, 2*p.Mem.L3.SizeBytes, 8<<10), schema, 24, c.layout)
			rows := make([]value.Row, 13*p.Mem.L3.SizeBytes/10/(schema.RowWidth()+24))
			for i := range rows {
				rows[i] = make(value.Row, len(schema.Columns))
				for j := range rows[i] {
					rows[i][j] = value.Int(int64(j))
					if lineitemStr(j) {
						rows[i][j] = value.Str(string(rune('A' + (i+j)%4)))
					}
				}
			}
			if c.coded {
				hf.Load(rows)
			} else {
				for _, row := range rows {
					hf.Append(row)
				}
			}
			r := hf.Data().Reads(q1)
			drainBatches(hf.BatchScan(1024, r))
			drainBatches(hf.BatchScan(1024, r))
			before := dev.M.Hier.Counters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainBatches(hf.BatchScan(1024, r))
			}
			ctr := dev.M.Hier.Counters().Sub(before)
			b.ReportMetric(float64(ctr.Loads)/float64(b.N), "lines/scan")
			b.ReportMetric(float64(ctr.Loads)/float64(b.N*len(rows)), "lines/row")
			b.ReportMetric(float64(ctr.MemAccesses+ctr.PrefetchL3)/float64(b.N), "dram-fills/scan")
		})
	}
}

// BenchmarkHeapFetchLayout fetches Q6's columns of a lineitem-shaped heap of
// 1.3 × the i7's 8 MB L3 (as row-major slots), laid out row-major and in
// column runs, 1 024 rows a batch (ReadRows) in key order: the ids of a
// key range of an index whose keys are a permutation of the heap's order.
// Each batch takes the next key range. The columns-staged case reads the
// column heap as a staged fetch of Q6's plan does (late materialization):
// l_shipdate and l_discount for every row, l_quantity for the rows
// l_discount's two conjuncts keep (3 in 11, TPC-H's discount shares), and
// l_extendedprice for the rows l_quantity < 24 keeps of those (23 in 50).
// It reports per fetched row (candidate) the loads it issues, the distinct
// lines they touch and the lines filled from DRAM (demand misses and
// DRAM→L3 prefetches). One pass over every batch warms the pool and the
// caches first; the simulation is deterministic, so one batch is exact.
func BenchmarkHeapFetchLayout(b *testing.B) {
	for _, c := range []struct {
		name   string
		layout Layout
		staged bool
	}{{"rows", Rows, false}, {"columns", Columns, false}, {"columns-staged", Columns, true}} {
		b.Run(c.name, func(b *testing.B) {
			const batch = 1024
			p := cpusim.IntelI7_4790()
			dev := NewDevice(cpusim.NewMachine(p), 256<<20)
			dev.M.Hier.SetPrefetchEnabled(true)
			schema, _ := lineitemShape()
			hf := NewHeapFile(dev, NewBufferPool(dev, 2*p.Mem.L3.SizeBytes, 8<<10), schema, 24, c.layout)
			row := make(value.Row, len(schema.Columns))
			for i := range row {
				row[i] = value.Int(int64(i))
			}
			n := 13 * p.Mem.L3.SizeBytes / 10 / (schema.RowWidth() + 24)
			for i := 0; i < n; i++ {
				hf.Append(row)
			}
			keyOrder := rand.New(rand.NewSource(1)).Perm(n)
			d := hf.Data()
			// l_quantity, l_extendedprice, l_discount, l_shipdate: one read,
			// or three stages.
			stages := []Reads{d.Reads([]int{4, 5, 6, 10})}
			if c.staged {
				stages = []Reads{d.Reads([]int{6, 10}), d.Later([]int{4}), d.Later([]int{5})}
			}
			// kept[s][id] is whether row id reaches stage s+1: the draws
			// are fixed, so every pass keeps the same rows.
			pass := rand.New(rand.NewSource(2))
			kept := [2][]bool{make([]bool, n), make([]bool, n)}
			for id := 0; id < n; id++ {
				kept[0][id] = pass.Intn(11) < 3
				kept[1][id] = kept[0][id] && pass.Intn(50) < 23
			}
			dst := make([]value.Row, batch)
			var at At
			ids := make([]int, 0, batch)
			fetch := func(i int) {
				from := i % (n / batch) * batch
				batchIDs := keyOrder[from : from+batch]
				if err := hf.ReadRows(batchIDs, dst, stages[0], &at); err != nil {
					b.Fatal(err)
				}
				for s, r := range stages[1:] {
					ids = ids[:0]
					for _, id := range batchIDs {
						if kept[s][id] {
							ids = append(ids, id)
						}
					}
					if err := hf.ReadRows(ids, nil, r, &at); err != nil {
						b.Fatal(err)
					}
				}
			}
			for i := 0; i < n/batch; i++ {
				fetch(i)
			}
			lines := map[uint64]bool{}
			var loads int
			dev.M.Hier.SetRecorder(func(kind memsim.AccessKind, addr, _ uint64) {
				if kind == memsim.AccessLoadDep || kind == memsim.AccessLoadInd {
					loads++
					lines[addr/memsim.LineSize] = true
				}
			})
			before := dev.M.Hier.Counters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetch(i)
			}
			b.StopTimer()
			ctr := dev.M.Hier.Counters().Sub(before)
			dev.M.Hier.SetRecorder(nil)
			rows := float64(b.N * batch)
			b.ReportMetric(float64(loads)/rows, "loads/row")
			b.ReportMetric(float64(len(lines))/rows, "lines/row")
			b.ReportMetric(float64(ctr.MemAccesses+ctr.PrefetchL3)/rows, "dram-fills/row")
		})
	}
}
