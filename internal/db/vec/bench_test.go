package vec_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/db/vec"
	"energydb/internal/tpch"
)

// benchRow is one cell of the row-versus-vector throughput sweep,
// serialized into BENCH_vector.json. Op names the operator slice
// (filter_agg, hash_join, sort), Batch is 0 for the row path, and
// SpeedupVsRow is filled in by the writer from the row-path baseline of the
// same op at the same selectivity.
type benchRow struct {
	Op           string  `json:"op,omitempty"`
	Mode         string  `json:"mode"`
	Batch        int     `json:"batch,omitempty"`
	Selectivity  float64 `json:"selectivity"`
	TableRows    int     `json:"table_rows"`
	Runs         int     `json:"runs"`
	Seconds      float64 `json:"seconds"`
	RowsPerSec   float64 `json:"rows_per_sec"`
	SpeedupVsRow float64 `json:"speedup_vs_row,omitempty"`
}

// benchQueries documents the statement shape behind each op slice.
var benchQueries = map[string]string{
	"filter_agg": "SELECT l_returnflag, SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity < c GROUP BY l_returnflag",
	"hash_join":  "SELECT * FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
	"sort":       "SELECT * FROM lineitem ORDER BY l_extendedprice DESC, l_quantity",
}

// benchCase is one predicate of the selectivity sweep over lineitem
// (l_quantity is uniform on [1,50], so the threshold is ~the selectivity).
type benchCase struct {
	label string
	pred  exec.Expr
}

// benchEngine loads the TPC-H 10MB subset into a SQLite-profile engine on a
// fresh machine.
func benchEngine() *engine.Engine {
	e := engine.New(engine.SQLite, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	return e
}

// BenchmarkVectorThroughput measures base-table rows per wall-clock second
// for the filter+aggregate acceptance query — SELECT l_returnflag,
// SUM(l_extendedprice), COUNT(*) FROM lineitem WHERE l_quantity < c GROUP BY
// l_returnflag over the TPC-H subset — through the row executor and through
// the vectorized executor at batch widths 1/64/256/1024/4096, across
// low/medium/full selectivities. Both paths run the same simulated machine
// and charge the same meter; the speedup is the vectorized engine's
// interpretation saving (one dispatch per primitive per batch instead of per
// tuple). The sweep is merged into BENCH_vector.json at the repo root.
func BenchmarkVectorThroughput(b *testing.B) {
	const (
		colQuantity = 4 // l_quantity
		colPrice    = 5 // l_extendedprice
		colFlag     = 8 // l_returnflag
	)
	lt := func(c float64) exec.Expr {
		return exec.BinOp{Op: exec.OpLt, L: exec.Col{Idx: colQuantity}, R: exec.Const{V: value.Float(c)}}
	}
	// l_quantity is uniform on [1,50], so lt(51) is an always-true filter:
	// the "full" cell is still a genuine filter+aggregate query (the
	// acceptance shape), just with selectivity 1.
	cases := []benchCase{
		{"low", lt(5)},
		{"half", lt(25)},
		{"full", lt(51)},
	}
	groupBy := []exec.Expr{exec.Col{Idx: colFlag}}
	aggs := []exec.AggSpec{
		{Kind: exec.AggSum, Arg: exec.Col{Idx: colPrice}, Name: "sum_price"},
		{Kind: exec.AggCount, Name: "n"},
	}

	ref := benchEngine()
	all, err := exec.Collect(ref.Scan(ref.MustTable("lineitem"), nil))
	if err != nil {
		b.Fatal(err)
	}
	tableRows := len(all)
	selectivity := func(pred exec.Expr) float64 {
		if pred == nil {
			return 1
		}
		n := 0
		for _, r := range all {
			if exec.Truthy(pred.Eval(r)) {
				n++
			}
		}
		return float64(n) / float64(tableRows)
	}

	var rows []benchRow
	record := func(b *testing.B, mode string, batch int, sel float64) {
		rps := float64(b.N) * float64(tableRows) / b.Elapsed().Seconds()
		b.ReportMetric(rps, "rows/sec")
		rows = append(rows, benchRow{
			Op: "filter_agg", Mode: mode, Batch: batch, Selectivity: sel,
			TableRows: tableRows, Runs: b.N, Seconds: b.Elapsed().Seconds(), RowsPerSec: rps,
		})
	}

	for _, c := range cases {
		sel := selectivity(c.pred)
		// A fresh engine per selectivity: every vector iteration draws its
		// batch vectors from the engine's bump arena (1MB at batch 4096),
		// and one engine shared by all eighteen cells runs out of simulated
		// address space once the kernels get fast enough.
		e := benchEngine()
		tbl := e.MustTable("lineitem")
		b.Run(fmt.Sprintf("mode=row/sel=%s", c.label), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Collect(e.GroupBy(e.Scan(tbl, c.pred), groupBy, aggs)); err != nil {
					b.Fatal(err)
				}
			}
			record(b, "row", 0, sel)
		})
		for _, batch := range []int{1, 64, 256, 1024, 4096} {
			b.Run(fmt.Sprintf("mode=vector/batch=%d/sel=%s", batch, c.label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					plan := &vec.RowSource{Child: &vec.Agg{
						Ctx: e.Ctx,
						Child: &vec.Scan{
							Ctx: e.Ctx, File: tbl.File, Pred: c.pred, BatchSize: batch,
						},
						GroupBy: groupBy,
						Aggs:    aggs,
					}}
					if _, err := exec.Collect(plan); err != nil {
						b.Fatal(err)
					}
				}
				record(b, "vector", batch, sel)
			})
		}
	}
	writeVectorBenchJSON(b, rows)
}

// BenchmarkVectorJoinSort measures the join and sort slices of the sweep:
// lineitem ⋈ orders on orderkey (probe-side rows per second) and a two-key
// lineitem sort, through the row operators and the batch kernels at batch
// widths 64/256/1024. Cells merge into BENCH_vector.json without disturbing
// the filter_agg slice, so partial reruns (make bench-join) stay consistent.
// Acceptance floor: the vectorized join sustains >= 1.5x the row join's
// rows/sec at batch >= 256.
func BenchmarkVectorJoinSort(b *testing.B) {
	e := benchEngine()
	lineitem := e.MustTable("lineitem")
	orders := e.MustTable("orders")
	probeRows := lineitem.File.RowCount()
	batches := []int{64, 256, 1024}

	var rows []benchRow
	record := func(b *testing.B, op, mode string, batch int) {
		rps := float64(b.N) * float64(probeRows) / b.Elapsed().Seconds()
		b.ReportMetric(rps, "rows/sec")
		rows = append(rows, benchRow{
			Op: op, Mode: mode, Batch: batch, Selectivity: 1,
			TableRows: probeRows, Runs: b.N, Seconds: b.Elapsed().Seconds(), RowsPerSec: rps,
		})
	}

	b.Run("op=hash_join/mode=row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.Drain(&exec.HashJoin{
				Ctx: e.Ctx, Build: e.Scan(orders, nil), Probe: e.Scan(lineitem, nil),
				BuildKey: []int{0}, ProbeKey: []int{0},
			}); err != nil {
				b.Fatal(err)
			}
		}
		record(b, "hash_join", "row", 0)
	})
	for _, batch := range batches {
		b.Run(fmt.Sprintf("op=hash_join/mode=vector/batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Drain(&vec.RowSource{Child: &vec.HashJoin{
					Ctx:      e.Ctx,
					Build:    &vec.Scan{Ctx: e.Ctx, File: orders.File, BatchSize: batch},
					Probe:    &vec.Scan{Ctx: e.Ctx, File: lineitem.File, BatchSize: batch},
					BuildKey: []int{0}, ProbeKey: []int{0}, BatchSize: batch,
				}}); err != nil {
					b.Fatal(err)
				}
			}
			record(b, "hash_join", "vector", batch)
		})
	}

	sortKeys := []exec.SortKey{
		{Expr: exec.Col{Idx: 5}, Desc: true}, // l_extendedprice
		{Expr: exec.Col{Idx: 4}},             // l_quantity
	}
	b.Run("op=sort/mode=row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.Drain(e.Sort(e.Scan(lineitem, nil), sortKeys)); err != nil {
				b.Fatal(err)
			}
		}
		record(b, "sort", "row", 0)
	})
	for _, batch := range batches {
		b.Run(fmt.Sprintf("op=sort/mode=vector/batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Drain(&vec.RowSource{Child: &vec.Sort{
					Ctx:   e.Ctx,
					Child: &vec.Scan{Ctx: e.Ctx, File: lineitem.File, BatchSize: batch},
					Keys:  sortKeys, BatchSize: batch,
				}}); err != nil {
					b.Fatal(err)
				}
			}
			record(b, "sort", "vector", batch)
		})
	}
	writeVectorBenchJSON(b, rows)
}

// BenchmarkIndexJoin is the row-versus-vector pair for the index nested loop:
// lineitem ⋈ orders through the orders index on o_orderkey, the join TPC-H
// runs most, in host rows per second over the probe side. Both forms issue
// the same B-tree descents and heap fetches; the vector one replaces the
// per-match interpretation storm by one fetch and one gather dispatch per
// output batch. It writes no JSON cell: `make bench-check` and CI run it once
// (-benchtime=1x) to keep the pair compiling and finishing.
func BenchmarkIndexJoin(b *testing.B) {
	e := benchEngine()
	lineitem, orders := e.MustTable("lineitem"), e.MustTable("orders")
	index := orders.Index("o_orderkey")
	if index == nil {
		b.Fatal("orders has no index on o_orderkey")
	}
	run := func(b *testing.B, op func() exec.Operator) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.Drain(op()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(lineitem.File.RowCount())/b.Elapsed().Seconds(), "rows/sec")
	}
	b.Run("mode=row", func(b *testing.B) {
		run(b, func() exec.Operator {
			return &exec.IndexJoin{Ctx: e.Ctx, Outer: e.Scan(lineitem, nil), Inner: orders.File, Index: index, OuterKey: 0}
		})
	})
	b.Run("mode=vector", func(b *testing.B) {
		run(b, func() exec.Operator {
			return &vec.RowSource{Child: &vec.IndexJoin{
				Ctx: e.Ctx, Probe: &vec.Scan{Ctx: e.Ctx, File: lineitem.File},
				Inner: orders.File, Index: index, ProbeKey: 0,
			}}
		})
	})
}

// benchFile is the BENCH_vector.json document.
type benchFile struct {
	Benchmark string            `json:"benchmark"`
	Queries   map[string]string `json:"queries"`
	Rows      []benchRow        `json:"rows"`
}

type benchKey struct {
	op    string
	mode  string
	batch int
	sel   float64
}

// writeVectorBenchJSON merges the measured cells into BENCH_vector.json
// next to go.mod. Sub-benchmarks rerun with growing b.N, so only each
// cell's final (largest-N) measurement is kept; cells already in the file
// but not re-measured in this run survive untouched, which keeps partial
// reruns (make bench-join) from clobbering the other slices. Every vector
// cell is annotated with its speedup over the row path of the same op at
// the same selectivity.
func writeVectorBenchJSON(b *testing.B, rows []benchRow) {
	if len(rows) == 0 {
		return
	}
	root, err := repoRoot()
	if err != nil {
		b.Logf("BENCH_vector.json not written: %v", err)
		return
	}
	path := filepath.Join(root, "BENCH_vector.json")

	final := make(map[benchKey]benchRow)
	if data, err := os.ReadFile(path); err == nil {
		var prior benchFile
		if err := json.Unmarshal(data, &prior); err == nil {
			for _, r := range prior.Rows {
				if r.Op == "" { // rows written before the op field existed
					r.Op = "filter_agg"
				}
				final[benchKey{r.Op, r.Mode, r.Batch, r.Selectivity}] = r
			}
		}
	}
	for _, r := range rows {
		final[benchKey{r.Op, r.Mode, r.Batch, r.Selectivity}] = r
	}

	rowBase := make(map[[2]interface{}]float64)
	for k, r := range final {
		if k.mode == "row" {
			rowBase[[2]interface{}{k.op, k.sel}] = r.RowsPerSec
		}
	}
	keys := make([]benchKey, 0, len(final))
	for k := range final {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, c := keys[i], keys[j]
		if a.op != c.op {
			return a.op < c.op
		}
		if a.sel != c.sel {
			return a.sel < c.sel
		}
		if a.mode != c.mode {
			return a.mode < c.mode
		}
		return a.batch < c.batch
	})
	out := make([]benchRow, 0, len(keys))
	for _, k := range keys {
		r := final[k]
		if k.mode == "vector" {
			if base := rowBase[[2]interface{}{k.op, k.sel}]; base > 0 {
				r.SpeedupVsRow = r.RowsPerSec / base
			}
		}
		out = append(out, r)
	}

	data, err := json.MarshalIndent(benchFile{
		Benchmark: "BenchmarkVectorThroughput + BenchmarkVectorJoinSort",
		Queries:   benchQueries,
		Rows:      out,
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Logf("BENCH_vector.json not written: %v", err)
		return
	}
	b.Logf("wrote %s", path)
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
