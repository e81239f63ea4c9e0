package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
	"energydb/internal/mubench"
	"energydb/internal/rapl"
	"energydb/internal/server/wire"
	"energydb/internal/tpch"
	"energydb/internal/trace"
)

// The lab measures at least labReps operations of each type, and goes on for
// labMinTime if that takes less: a 40 µs point lookup needs more than nine
// samples for a steady median. Values are medians per type.
const (
	labReps    = 9
	labMinTime = time.Second
)

// lab is the in-process pass: the same stack a server worker runs, built from
// the layers' public constructors, so each call into a layer can be timed on
// its own. The store is loaded on a calibrated primary machine and statements
// execute on NewLike clones through views, as server.New and its workers do.
//
// Every operation runs twice, on two such clones. On the first it is timed,
// span by span. On the second, allocations are counted and every simulated
// access is recorded; the recorded accesses are then replayed into shadow, a
// bare hierarchy that has been fed every access the second clone ever made.
// Shadow and clone are therefore in the same state before each statement, so
// the replay must reproduce the statement's counters exactly, and the time
// it takes is the time that execution spent inside memsim.
type lab struct {
	sides  [2]labSide // timed, recorded
	shadow *memsim.Hierarchy
	log    *spanLog

	calibrateS, generateS, loadS float64

	n       int64 // the running operation number of the client whose operation is being measured
	spanID  int   // operations measured so far: the spans' statement id
	opSpan  int
	second  bool // the pass on the recorded side
	commits int

	events   []trace.Event // accesses the recorded side made during this operation, reused
	executes []executed    // its execute calls
}

// labSide is one worker-like machine with its view of the store.
type labSide struct {
	eng  *engine.Engine
	m    *cpusim.Machine
	prof *core.Profiler
}

// executed is one execute call on the recorded side.
type executed struct {
	from, to int // its accesses are events[from:to]
	ctr      memsim.Counters
}

func newLab(class tpch.SizeClass, epoch time.Time) (*lab, error) {
	l := &lab{log: newSpanLog(epoch)}
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	meter := rapl.NewMeter(m, 42, rapl.DefaultNoise)
	runner := mubench.NewRunner(m, meter)
	runner.Scale = 0.1

	start := time.Now()
	cal, err := core.Calibrate(runner)
	if err != nil {
		return nil, fmt.Errorf("lab: calibration: %w", err)
	}
	l.calibrateS = time.Since(start).Seconds()

	start = time.Now()
	data := tpch.Generate(class, dataSeed)
	l.generateS = time.Since(start).Seconds()

	start = time.Now()
	primary := engine.New(engine.PostgreSQL, m, engine.SettingBaseline)
	tpch.Load(primary, data)
	l.loadS = time.Since(start).Seconds()

	for i := range l.sides {
		wm := m.NewLike()
		wm.Hier.SetPrefetchEnabled(true) // as Profile will; the shadow must start alike
		l.sides[i] = labSide{
			m:    wm,
			prof: core.NewProfiler(wm, rapl.NewMeter(wm, 43+int64(i), rapl.DefaultNoise), cal),
		}
	}
	rec := l.sides[1].m.Hier
	l.shadow = rec.NewLike()
	rec.SetRecorder(func(kind memsim.AccessKind, addr, n uint64) {
		l.events = append(l.events, trace.Event{Kind: kind, Addr: addr, N: n})
	})
	for i := range l.sides {
		l.sides[i].eng = primary.Shared().View(l.sides[i].m)
	}
	return l, l.replayOp(nil) // whatever building the view touched
}

// number is the running operation number statements embed. Each side counts
// like a client of its own, so that a DELETE finds the key the same side
// inserted five operations earlier; the offset keeps the sides' keys apart.
func (l *lab) number() int64 {
	if l.second {
		return l.n + insertBase/2
	}
	return l.n
}

// side is the machine the current pass runs on.
func (l *lab) side() *labSide {
	if l.second {
		return &l.sides[1]
	}
	return &l.sides[0]
}

// sample is what one operation cost, layer by layer: additive quantities
// keyed by name, so types can be weighted into a workload figure.
type sample map[string]float64

// stage times one call into a layer as a span, or, on the second pass,
// counts what it allocated.
func (l *lab) stage(s sample, name string, f func()) {
	if l.second {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		s[name+".allocs"] += float64(after.Mallocs - before.Mallocs)
		s[name+".bytes"] += float64(after.TotalAlloc - before.TotalAlloc)
		return
	}
	i := l.log.begin(name, l.spanID, l.opSpan)
	f()
	s[name+".ns"] += float64(l.log.end(i))
}

// measure runs one operation, its client's n-th, through every layer, once
// on each side, and returns its costs.
func (l *lab) measure(o *op, n int64) (sample, error) {
	s := make(sample)
	l.n = n
	l.spanID++
	// Reading the allocator's statistics stops the world, which a 5 µs parse
	// would feel, and recording accesses slows the execution recorded: so
	// times come from a pass that does neither.
	for _, l.second = range []bool{false, true} {
		if !l.second {
			l.opSpan = l.log.begin("op:"+o.typ, l.spanID, -1)
		}
		err := l.runOp(o, s)
		if !l.second {
			l.log.end(l.opSpan)
		}
		if err != nil {
			return nil, fmt.Errorf("lab %s: %w", o.typ, err)
		}
	}
	if err := l.replayOp(s); err != nil {
		return nil, fmt.Errorf("lab %s: %w", o.typ, err)
	}
	return s, nil
}

// replayOp feeds the shadow hierarchy what the recorded side did since the
// last call, timing the execute calls and holding the shadow's counters
// against theirs.
func (l *lab) replayOp(s sample) error {
	at := 0
	for _, e := range l.executes {
		if err := replay(l.events[at:e.from], l.shadow); err != nil {
			return err
		}
		base := l.shadow.Counters()
		start := time.Now()
		err := replay(l.events[e.from:e.to], l.shadow)
		d := time.Since(start)
		if err != nil {
			return err
		}
		if err := checkFidelity(e.ctr, l.shadow.Counters().Sub(base)); err != nil {
			return err
		}
		s["memsim.replay.ns"] += float64(d)
		for _, ev := range l.events[e.from:e.to] {
			s["memsim.sim_ops"] += float64(ev.N)
		}
		s["memsim.trace_events"] += float64(e.to - e.from)
		at = e.to
	}
	err := replay(l.events[at:], l.shadow)
	l.events, l.executes = l.events[:0], l.executes[:0]
	return err
}

func (l *lab) runOp(o *op, s sample) error {
	var tx *txn.Txn
	if o.txn {
		_, _ = l.execute(s, func() error { tx = l.side().eng.Begin(); return nil })
	}
	for i := range o.stmts {
		if err := l.runStmt(expand(o.stmts[i].text, l.number()), tx, s); err != nil {
			return err
		}
	}
	if o.txn {
		if _, err := l.execute(s, func() error { l.side().eng.Bind(tx); return l.side().eng.Commit(tx) }); err != nil {
			return err
		}
		if !l.second {
			l.commits++
		}
	}
	return nil
}

func (l *lab) runStmt(text string, tx *txn.Txn, s sample) error {
	var frame []byte
	l.stage(s, "wire.encode_query", func() { frame = wire.Encode(&wire.Query{Text: text}) })
	l.stage(s, "wire.decode_query", func() { _, _ = wire.Decode(frame) }) // just encoded; cannot fail

	var parsed sql.Statement
	var err error
	l.stage(s, "sql.parse", func() { parsed, err = sql.ParseStatement(text) })
	if err != nil {
		return err
	}
	eng := l.side().eng
	bind := func() {
		if tx != nil {
			eng.Bind(tx)
		} else {
			eng.Unbind()
		}
	}

	var cols []string
	var rows []value.Row
	sel, isSelect := parsed.(*sql.SelectStmt)
	if !isSelect {
		var n int
		if _, err := l.execute(s, func() (err error) {
			bind()
			n, err = plan.ExecWrite(eng, tx, parsed)
			return err
		}); err != nil {
			return err
		}
		cols, rows = []string{"rows_affected"}, []value.Row{{value.Int(int64(n))}}
	} else {
		var prepared *plan.Prepared
		l.stage(s, "plan.prepare", func() { bind(); prepared, err = plan.Prepare(eng, sel) })
		if err != nil {
			return err
		}
		var root exec.Operator
		l.stage(s, "plan.build", func() { root, err = prepared.Build() })
		if err != nil {
			return err
		}
		cols = root.Schema().Names()
		b, err := l.execute(s, func() (err error) {
			bind()
			rows, err = exec.Collect(root)
			return err
		})
		if err != nil {
			return err
		}
		if !l.second {
			explain, _ := prepared.Explain()
			for _, r := range explain[:len(explain)-1] { // the last row is the predicted total
				s["plan.nodes"]++
				if strings.Contains(r[0].S, "mode=vector") {
					s["plan.vector_nodes"]++
				}
			}
			s["plan.predicted_j"] += prepared.PredictedEJ()
			s["plan.measured_j"] += b.EActive
		}
	}

	rep := &wire.EnergyReport{Name: "query", Rows: uint64(len(rows))}
	var f1, f2 []byte
	l.stage(s, "wire.encode_result", func() {
		f1 = wire.Encode(&wire.ResultSet{Cols: cols, Rows: rows})
		f2 = wire.Encode(rep)
	})
	l.stage(s, "wire.decode_result", func() { _, _ = wire.Decode(f1); _, _ = wire.Decode(f2) })
	if !l.second {
		s["wire.result_bytes"] += float64(len(f1) + len(f2))
		s["exec.rows_out"] += float64(len(rows))
	}
	return nil
}

// execute runs f the way a server job does, as one exec.execute span around
// Profiler.Profile, and books the breakdown's counters and energy.
func (l *lab) execute(s sample, f func() error) (core.Breakdown, error) {
	var b core.Breakdown
	var err error
	from := len(l.events)
	l.stage(s, "exec.execute", func() { b = l.side().prof.Profile("lab", func() { err = f() }) })
	if err != nil {
		return b, err
	}
	if l.second {
		l.executes = append(l.executes, executed{from: from, to: len(l.events), ctr: b.Counters})
		return b, nil
	}
	c := b.Counters
	for k, v := range map[string]uint64{
		"ctr.instructions": c.Instructions(), "ctr.cycles": c.Cycles(), "ctr.stall_cycles": c.StallCycles,
		"ctr.l1d_accesses": c.L1DAccesses, "ctr.l1d_hits": c.L1DHits,
		"ctr.l2_accesses": c.L2Accesses, "ctr.l2_hits": c.L2Hits,
		"ctr.l3_accesses": c.L3Accesses, "ctr.l3_hits": c.L3Hits,
		"ctr.dram": c.MemAccesses, "ctr.prefetch": c.PrefetchL2 + c.PrefetchL3,
	} {
		s[k] += float64(v)
	}
	for i, j := range b.Joules {
		s["core."+core.Component(i).String()] += j
	}
	s["core.e_active"] += b.EActive
	return b, nil
}

// byType walks the workload's lists the way the one-client phase does, a
// cycle of each client's in turn, so every statement meets the simulated
// caches as its predecessors in the mix left them. It stops once every type
// has labReps samples and labMinTime has passed, and returns each type's
// per-key medians. The first round is a warm-up and is not kept.
func (l *lab) byType(w *workload) (map[string]sample, error) {
	want := make(map[string]bool)
	for c := range w.lists {
		for i := range w.lists[c] {
			want[w.lists[c][i].typ] = true
		}
	}
	samples := make(map[string][]sample)
	start := time.Now()
	enough := func() bool {
		if time.Since(start) < labMinTime {
			return false
		}
		for typ := range want {
			if len(samples[typ]) < labReps {
				return false
			}
		}
		return true
	}
	var done [numClients]int
	for round := 0; !enough(); round++ {
		for c := range w.lists {
			for i := 0; i < w.cycle[c]; i++ {
				o := &w.lists[c][done[c]%len(w.lists[c])]
				done[c]++
				s, err := l.measure(o, int64(done[c]))
				if err != nil {
					return nil, err
				}
				if round > 0 {
					samples[o.typ] = append(samples[o.typ], s)
				}
			}
		}
	}
	out := make(map[string]sample)
	for typ, ss := range samples {
		out[typ] = medians(ss)
	}
	return out, nil
}

func medians(samples []sample) sample {
	vals := make(map[string][]float64)
	for _, s := range samples {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(sample, len(vals))
	for k, v := range vals {
		// A key an operation did not touch counts as zero for it.
		for len(v) < len(samples) {
			v = append(v, 0)
		}
		out[k] = median(v)
	}
	return out
}

// profileEmptyNs is the host cost of the execute span around nothing: the
// fixed price of the counter snapshots and meter reads every statement pays.
func (l *lab) profileEmptyNs() float64 {
	l.second, l.opSpan = false, -1
	var ns []float64
	for i := 0; i < 99; i++ {
		s := make(sample)
		_, _ = l.execute(s, func() error { return nil })
		ns = append(ns, s["exec.execute.ns"])
	}
	return median(ns)
}

// given as operation counts by type.
func weigh(byType map[string]sample, counts map[string]int) sample {
	total := 0
	for _, n := range counts {
		total += n
	}
	out := make(sample)
	if total == 0 {
		return out
	}
	for typ, n := range counts {
		for k, v := range byType[typ] {
			out[k] += v * float64(n) / float64(total)
		}
	}
	return out
}
