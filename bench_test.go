package energydb

// The benchmark harness regenerates every table and figure of the paper's
// evaluation as testing.B targets (quick-sweep configurations so a full
// `go test -bench=.` completes on a laptop; run cmd/energyprof for the
// full-length versions), plus component micro-benchmarks of the simulator
// substrate and the ablation benches called out in DESIGN.md.
//
// Each paper-artifact benchmark prints its regenerated table once.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/harness"
	"energydb/internal/memsim"
	"energydb/internal/rapl"
	"energydb/internal/tcm"
	"energydb/internal/tpch"

	"energydb/internal/core"
)

var printedTables sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := harness.DefaultOptions()
	opts.Quick = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printedTables.LoadOrStore(id, true); !done {
			b.StopTimer()
			fmt.Printf("\n%s\n", res.Text)
			b.StartTimer()
		}
	}
}

// Paper artifacts: one benchmark per table and figure.

func BenchmarkTable1(b *testing.B)  { runExperiment(b, "T1") }
func BenchmarkTable2(b *testing.B)  { runExperiment(b, "T2") }
func BenchmarkTable3(b *testing.B)  { runExperiment(b, "T3") }
func BenchmarkTable5(b *testing.B)  { runExperiment(b, "T5") }
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "F5") }
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "F6") }
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "F7") }
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "F8") }
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "F9") }

func BenchmarkFigure10(b *testing.B) { runExperiment(b, "F10") }
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "F11") }
func BenchmarkFigure13(b *testing.B) { runExperiment(b, "F13") }

// Substrate micro-benchmarks: raw simulator throughput.

func BenchmarkHierarchyLoadL1DHit(b *testing.B) {
	h := memsim.New(memsim.I7_4790())
	h.Load(0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, false)
	}
}

func BenchmarkHierarchyLoadStream(b *testing.B) {
	h := memsim.New(memsim.I7_4790())
	h.SetPrefetchEnabled(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(uint64(i)*memsim.LineSize, false)
	}
}

// BenchmarkHierarchyScanResident loops over a 1 MB region with the streamer
// on: after the first pass every load hits L2 or L3 and every prefetch finds
// its line present — the path a scan of a cache-resident table takes, which
// LoadStream (never a hit) does not reach.
func BenchmarkHierarchyScanResident(b *testing.B) {
	h := memsim.New(memsim.I7_4790())
	h.SetPrefetchEnabled(true)
	const lines = (1 << 20) / memsim.LineSize
	h.LoadRange(0, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(uint64(i%lines)*memsim.LineSize, false)
	}
}

func BenchmarkHierarchyLoadRandomDRAM(b *testing.B) {
	h := memsim.New(memsim.I7_4790())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(uint64(i*2654435761)%(256<<20), true)
	}
}

// stateSink keeps BenchmarkHierarchyState's snapshots live.
var stateSink memsim.State

// fullHierarchy is an i7 hierarchy whose every set of every level is full.
func fullHierarchy() *memsim.Hierarchy {
	cfg := memsim.I7_4790()
	h := memsim.New(cfg)
	h.StoreRange(0, 2*uint64(cfg.L3.SizeBytes))
	return h
}

// BenchmarkHierarchyState takes a new snapshot of a full i7 hierarchy, the
// kind mubench keeps to find a repeating pass.
func BenchmarkHierarchyState(b *testing.B) {
	h := fullHierarchy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stateSink = h.State()
	}
}

// BenchmarkHierarchyMatches compares a full i7 hierarchy with the snapshot it
// is in, which is what mubench does after each compared pass instead of
// taking a second snapshot.
func BenchmarkHierarchyMatches(b *testing.B) {
	h := fullHierarchy()
	s := h.State()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !h.Matches(s) {
			b.Fatal("the hierarchy does not match its own snapshot")
		}
	}
}

// BenchmarkCalibration/boot is what server.New, dbshell and the benchmark's
// set-up pay before the first statement: pass counts at scale 0.1, five
// sessions per micro-benchmark. /single-pass runs every micro-benchmark's
// warmup and one session of its fewest passes: nothing in it repeats, so it
// is the cost of the walks themselves.
func BenchmarkCalibration(b *testing.B) {
	b.Run("boot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewStack(cpusim.PStateMax, 1, 0, 0.1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewStack(cpusim.PStateMax, 1, 0, 0.02, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCreateIndex builds the lineitem l_orderkey index of the 100MB
// class: one Insert per row into a tree no reader has seen.
func BenchmarkCreateIndex(b *testing.B) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(engine.PostgreSQL, m, engine.SettingBaseline)
	lineitem := e.CreateTable("lineitem", tpch.LineitemSchema)
	for _, r := range tpch.Generate(tpch.Size100MB, 7421).Lineitem {
		e.Insert(lineitem, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CreateIndex(lineitem, "l_orderkey")
	}
}

// sqlText is the SQL text of TPC-H query id.
func sqlText(b *testing.B, id int) string {
	q, err := tpch.SQLByID(id)
	if err != nil {
		b.Fatal(err)
	}
	return q.Text
}

// benchTPCH plans and drains TPC-H query id on a 10MB engine of the kind,
// once per iteration.
func benchTPCH(b *testing.B, kind engine.Kind, id int) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(kind, m, engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	build := plan.Builder(sqlText(b, id))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, err := build(e)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(op); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTPCHQ1SQLite(b *testing.B) { benchTPCH(b, engine.SQLite, 1) }

func BenchmarkTPCHQ3PostgreSQL(b *testing.B) { benchTPCH(b, engine.PostgreSQL, 3) }

// Ablation benches (DESIGN.md section 6).

// BenchmarkAblationPrefetcher quantifies what the L2 streamer is worth to a
// scan-heavy query: the same plan runs with the prefetcher on and off, and
// the stall-cycle ratio is reported as a custom metric.
func BenchmarkAblationPrefetcher(b *testing.B) {
	run := func(on bool) float64 {
		m := cpusim.NewMachine(cpusim.IntelI7_4790())
		e := engine.New(engine.SQLite, m, engine.SettingBaseline)
		tpch.Setup(e, tpch.Size10MB)
		m.Hier.SetPrefetchEnabled(on)
		op, err := tpch.Warm(e, plan.Builder(sqlText(b, 6)))
		if err != nil {
			b.Fatal(err)
		}
		before := m.Hier.Counters()
		if _, err := e.Run(op); err != nil {
			b.Fatal(err)
		}
		return float64(m.Hier.Counters().Sub(before).StallCycles)
	}
	var withPf, withoutPf float64
	for i := 0; i < b.N; i++ {
		withPf = run(true)
		withoutPf = run(false)
	}
	if withPf > 0 {
		b.ReportMetric(withoutPf/withPf, "stall-ratio-off/on")
	}
}

// BenchmarkAblationDTCMBudget sweeps how the 32KB DTCM budget split between
// the three co-design strategies affects the saving: all-specials vs the
// paper's 16/4/12KB split (buffer/specials/B-tree).
func BenchmarkAblationDTCMBudget(b *testing.B) {
	measure := func(tables []string) float64 {
		run := func(optimize bool) float64 {
			m := tcm.NewMachine()
			meter := rapl.NewPowerMeter(m, 7, 0)
			e := engine.New(engine.SQLite, m, engine.SettingSmall)
			e.Knobs.DisableVectorExec = true // Figure 13's row executor
			tpch.Setup(e, tpch.Size10MB)
			if optimize {
				if _, err := tcm.OptimizeSQLite(e, tables); err != nil {
					b.Fatal(err)
				}
			}
			op, err := tpch.Warm(e, plan.Builder(sqlText(b, 6)))
			if err != nil {
				b.Fatal(err)
			}
			j, _ := meter.MeasureSession(func() {
				if _, err := e.Run(op); err != nil {
					b.Fatal(err)
				}
			})
			return j
		}
		return 1 - run(true)/run(false)
	}
	var lineitemOnly, allTables float64
	for i := 0; i < b.N; i++ {
		lineitemOnly = measure([]string{"lineitem"})
		allTables = measure([]string{"lineitem", "orders", "customer", "part", "supplier"})
	}
	b.ReportMetric(lineitemOnly*100, "saving%-btree-lineitem")
	b.ReportMetric(allTables*100, "saving%-btree-split")
}

// BenchmarkAblationL1DPrefetcher enables the PMU-invisible L1D next-line
// prefetcher (the paper: the i7-4790's L1D prefetchers "cannot support the
// performance counter") and reports how much true energy becomes invisible
// to the Eq. 1 model on a scan query — one source of the paper's <100%
// verification accuracy.
func BenchmarkAblationL1DPrefetcher(b *testing.B) {
	var hiddenShare float64
	for i := 0; i < b.N; i++ {
		prof := cpusim.IntelI7_4790()
		prof.Mem.Prefetch.L1DNextLine = true
		m := cpusim.NewMachine(prof)
		e := engine.New(engine.SQLite, m, engine.SettingBaseline)
		tpch.Setup(e, tpch.Size10MB)
		m.Hier.SetPrefetchEnabled(true)
		op, err := tpch.Warm(e, plan.Builder(sqlText(b, 6)))
		if err != nil {
			b.Fatal(err)
		}
		before := m.Hier.Counters()
		if _, err := e.Run(op); err != nil {
			b.Fatal(err)
		}
		d := m.Hier.Counters().Sub(before)
		table := prof.Energy
		hidden := table.PerOp(cpusim.OpL2, m.PState()) * float64(d.UncountedL1DPf)
		visible := table.Active(d, m.PState()).Total() * 1e9
		if visible > 0 {
			hiddenShare = hidden / visible * 100
		}
	}
	b.ReportMetric(hiddenShare, "hidden-energy-%")
}

// BenchmarkAblationFillPolicy quantifies the step-by-step replication
// strategy (Figure 2) against a direct-to-L1 fill: replication costs more
// fill traffic but keeps copies in L2/L3, so re-references stay close.
// Reported metrics compare true active energy and stall cycles for a scan
// query under both policies.
func BenchmarkAblationFillPolicy(b *testing.B) {
	run := func(direct bool) (energy float64, stalls uint64) {
		prof := cpusim.IntelI7_4790()
		prof.Mem.DirectFill = direct
		m := cpusim.NewMachine(prof)
		e := engine.New(engine.PostgreSQL, m, engine.SettingBaseline)
		// The policy only matters when re-references land in L2/L3:
		// an index scan over the 100MB class has exactly that reuse. Free
		// plans may read the range sequentially, so the text is planned for
		// the row executor and the plan must be the index scan.
		tpch.Setup(e, tpch.Size100MB)
		e.Knobs.DisableVectorExec = true
		op, err := tpch.BasicOpByName("index scan")
		if err != nil {
			b.Fatal(err)
		}
		stmt, err := sql.Parse(op.Text)
		if err != nil {
			b.Fatal(err)
		}
		build := func() exec.Operator {
			p, err := plan.Prepare(e, stmt)
			if err != nil {
				b.Fatal(err)
			}
			if s := p.Summary(); !strings.Contains(s, "IndexScan") {
				b.Fatalf("index scan text planned as %s", s)
			}
			scan, err := p.Build()
			if err != nil {
				b.Fatal(err)
			}
			return scan
		}
		if _, err := e.Run(build()); err != nil {
			b.Fatal(err)
		}
		scan := build()
		before := m.Hier.Counters()
		e0 := m.ActiveEnergy().Total()
		if _, err := e.Run(scan); err != nil {
			b.Fatal(err)
		}
		return m.ActiveEnergy().Total() - e0, m.Hier.Counters().Sub(before).StallCycles
	}
	var eRepl, eDirect float64
	var sRepl, sDirect uint64
	for i := 0; i < b.N; i++ {
		eRepl, sRepl = run(false)
		eDirect, sDirect = run(true)
	}
	if eRepl > 0 && sRepl > 0 {
		b.ReportMetric(eDirect/eRepl, "energy-direct/repl")
		b.ReportMetric(float64(sDirect)/float64(sRepl), "stall-direct/repl")
	}
}

// BenchmarkAblationEngineOverhead contrasts the three engine cost models on
// TPC-H Q1 (one scan, one aggregate and a sort on every profile), reporting
// instructions per query.
func BenchmarkAblationEngineOverhead(b *testing.B) {
	for _, kind := range engine.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			m := cpusim.NewMachine(cpusim.IntelI7_4790())
			e := engine.New(kind, m, engine.SettingBaseline)
			tpch.Setup(e, tpch.Size10MB)
			build := plan.Builder(sqlText(b, 1))
			b.ResetTimer()
			var instr, rows uint64
			for i := 0; i < b.N; i++ {
				op, err := build(e)
				if err != nil {
					b.Fatal(err)
				}
				before := m.Hier.Counters()
				n, err := e.Run(op)
				if err != nil {
					b.Fatal(err)
				}
				instr += m.Hier.Counters().Sub(before).Instructions()
				rows += uint64(n)
			}
			if rows > 0 {
				b.ReportMetric(float64(instr)/float64(b.N), "instr/query")
			}
		})
	}
}
