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
// 48 bytes, 72 with the header.
func lineitemShape() (*catalog.Schema, []int) {
	var cols []catalog.Column
	for _, w := range []int{8, 8, 8, 8, 8, 8, 8, 8, 4, 4, 8, 8, 8, 16, 16, 8} {
		cols = append(cols, catalog.Column{Name: "c", Type: value.TypeInt, Width: w})
	}
	return catalog.NewSchema(cols...), []int{4, 5, 6, 7, 8, 9, 10}
}

// BenchmarkHeapScanLayout batch-scans Q1's columns of a lineitem-shaped heap
// of 1.3 × the i7's 8 MB L3 (as row-major slots), laid out row-major and in
// column runs, and reports per scan the lines the scan loads and the lines
// it fills from DRAM (demand misses and DRAM→L3 prefetches). Two scans warm
// the caches first; the simulation is deterministic, so one scan is exact.
func BenchmarkHeapScanLayout(b *testing.B) {
	for _, layout := range []Layout{Rows, Columns} {
		name := map[Layout]string{Rows: "rows", Columns: "columns"}[layout]
		b.Run(name, func(b *testing.B) {
			p := cpusim.IntelI7_4790()
			dev := NewDevice(cpusim.NewMachine(p), 256<<20)
			dev.M.Hier.SetPrefetchEnabled(true)
			schema, q1 := lineitemShape()
			hf := NewHeapFile(dev, NewBufferPool(dev, 2*p.Mem.L3.SizeBytes, 8<<10), schema, 24, layout)
			row := make(value.Row, len(schema.Columns))
			for i := range row {
				row[i] = value.Int(int64(i))
			}
			for n := 13 * p.Mem.L3.SizeBytes / 10 / (schema.RowWidth() + 24); n > 0; n-- {
				hf.Append(row)
			}
			r := hf.Data().Reads(q1)
			drainBatches(hf.BatchScan(1024, r))
			drainBatches(hf.BatchScan(1024, r))
			before := dev.M.Hier.Counters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainBatches(hf.BatchScan(1024, r))
			}
			c := dev.M.Hier.Counters().Sub(before)
			b.ReportMetric(float64(c.Loads)/float64(b.N), "lines/scan")
			b.ReportMetric(float64(c.MemAccesses+c.PrefetchL3)/float64(b.N), "dram-fills/scan")
		})
	}
}

// BenchmarkHeapFetchLayout fetches Q6's columns of a lineitem-shaped heap of
// 1.3 × the i7's 8 MB L3 (as row-major slots), laid out row-major and in
// column runs, 1 024 rows a batch (ReadRows) in key order: the ids of a
// key range of an index whose keys are a permutation of the heap's order.
// Each batch takes the next key range. It reports per fetched row the loads
// it issues, the distinct lines they touch and the lines filled from DRAM
// (demand misses and DRAM→L3 prefetches). One pass over every batch warms
// the pool and the caches first; the simulation is deterministic, so one
// batch is exact.
func BenchmarkHeapFetchLayout(b *testing.B) {
	for _, layout := range []Layout{Rows, Columns} {
		name := map[Layout]string{Rows: "rows", Columns: "columns"}[layout]
		b.Run(name, func(b *testing.B) {
			const batch = 1024
			p := cpusim.IntelI7_4790()
			dev := NewDevice(cpusim.NewMachine(p), 256<<20)
			dev.M.Hier.SetPrefetchEnabled(true)
			schema, _ := lineitemShape()
			hf := NewHeapFile(dev, NewBufferPool(dev, 2*p.Mem.L3.SizeBytes, 8<<10), schema, 24, layout)
			row := make(value.Row, len(schema.Columns))
			for i := range row {
				row[i] = value.Int(int64(i))
			}
			n := 13 * p.Mem.L3.SizeBytes / 10 / (schema.RowWidth() + 24)
			for i := 0; i < n; i++ {
				hf.Append(row)
			}
			keyOrder := rand.New(rand.NewSource(1)).Perm(n)
			r := hf.Data().Reads([]int{4, 5, 6, 10}) // l_quantity, l_extendedprice, l_discount, l_shipdate
			dst := make([]value.Row, batch)
			fetch := func(i int) {
				at := i % (n / batch) * batch
				if err := hf.ReadRows(keyOrder[at:at+batch], dst, r, nil); err != nil {
					b.Fatal(err)
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
			c := dev.M.Hier.Counters().Sub(before)
			dev.M.Hier.SetRecorder(nil)
			rows := float64(b.N * batch)
			b.ReportMetric(float64(loads)/rows, "loads/row")
			b.ReportMetric(float64(len(lines))/rows, "lines/row")
			b.ReportMetric(float64(c.MemAccesses+c.PrefetchL3)/rows, "dram-fills/row")
		})
	}
}
