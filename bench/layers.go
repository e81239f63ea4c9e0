package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"

	"energydb/internal/core"
	"energydb/internal/server/client"
	"energydb/internal/server/wire"
)

// tracedSession speaks the wire protocol on its own connection so that each
// round trip can be split into spans: encode+write, wait for the first reply
// byte, decode. client.Conn.Query hides those phases.
type tracedSession struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	log *spanLog
	id  int                  // round trips so far: the spans' statement id
	rt  map[string][]float64 // round-trip seconds by verb: begin commit update insert delete select
}

func dialTraced(epoch time.Time) func(string, *workload) (session, error) {
	return func(addr string, w *workload) (session, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		t := &tracedSession{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c),
			log: newSpanLog(epoch), rt: make(map[string][]float64)}
		o := engineOpts(w)
		frames, err := t.roundTrip("hello", &wire.Hello{Version: wire.ProtocolVersion, Engine: o.Engine, Setting: o.Setting, Class: o.Class}, 1)
		if err != nil {
			c.Close()
			return nil, err
		}
		if _, ok := frames[0].(*wire.HelloAck); !ok {
			c.Close()
			return nil, fmt.Errorf("handshake: got %v frame", frames[0].FrameType())
		}
		return t, nil
	}
}

// roundTrip sends f and reads replies frames, or the one Error frame the
// server sends in their place.
func (t *tracedSession) roundTrip(verb string, f wire.Frame, replies int) ([]wire.Frame, error) {
	t.id++
	root := t.log.begin("roundtrip:"+verb, t.id, -1)
	defer func() { t.rt[verb] = append(t.rt[verb], t.log.end(root).Seconds()) }()

	sp := t.log.begin("client.encode_write", t.id, root)
	err := wire.Write(t.w, f)
	if err == nil {
		err = t.w.Flush()
	}
	t.log.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.log.begin("client.wait", t.id, root)
	_, err = t.r.Peek(1)
	t.log.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.log.begin("client.decode", t.id, root)
	defer t.log.end(sp)
	var out []wire.Frame
	for len(out) < replies {
		fr, err := wire.Read(t.r)
		if err != nil {
			return nil, err
		}
		if e, ok := fr.(*wire.Error); ok {
			return nil, &client.QueryError{Msg: e.Msg}
		}
		out = append(out, fr)
	}
	return out, nil
}

func (t *tracedSession) Query(text string) (*client.Result, error) {
	verb, _, _ := strings.Cut(text, " ")
	frames, err := t.roundTrip(strings.ToLower(verb), &wire.Query{Text: text}, 2)
	if err != nil {
		return nil, err
	}
	rs, ok1 := frames[0].(*wire.ResultSet)
	rep, ok2 := frames[1].(*wire.EnergyReport)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("expected ResultSet and EnergyReport, got %v and %v", frames[0].FrameType(), frames[1].FrameType())
	}
	return &client.Result{Cols: rs.Cols, Rows: rs.Rows, Energy: *rep}, nil
}

func (t *tracedSession) txnCtl(verb string, op wire.TxnOp) error {
	frames, err := t.roundTrip(verb, &wire.TxnCtl{Op: op}, 1)
	if err != nil {
		return err
	}
	if _, ok := frames[0].(*wire.TxnAck); !ok {
		return fmt.Errorf("expected TxnAck, got %v", frames[0].FrameType())
	}
	return nil
}

func (t *tracedSession) Begin() error  { return t.txnCtl("begin", wire.TxnBegin) }
func (t *tracedSession) Commit() error { return t.txnCtl("commit", wire.TxnCommit) }

func (t *tracedSession) Close() error {
	_ = wire.Write(t.w, &wire.Quit{}) // best effort; the server also handles EOF
	_ = t.w.Flush()
	return t.c.Close()
}

// traceClient opens a traced session beside c's own and warms it with one
// untimed cycle. The caller switches c between the two.
func (sys *system) traceClient(c *loopClient, epoch time.Time, st *phaseStats) (*tracedSession, error) {
	sess, err := sys.connect(dialTraced(epoch))
	if err != nil {
		return nil, err
	}
	plain := c.sess
	c.sess = sess
	err = c.oneCycle(st)
	c.sess = plain
	return sess.(*tracedSession), err
}

// wallHistogram reads the server's per-job host wall time histogram.
func (sys *system) wallHistogram() (sum float64, count uint64) {
	for _, f := range sys.srv.Stats().Metrics.Families {
		if f.Name == "energyd_statement_wall_seconds" && len(f.Metrics) > 0 {
			return f.Metrics[0].Sum, f.Metrics[0].Count
		}
	}
	return 0, 0
}

func opCounts(st *phaseStats) map[string]int {
	out := make(map[string]int)
	for t, l := range st.lat {
		out[t] = len(l)
	}
	return out
}

// slices is how many times the traced pass switches between untraced and
// traced sessions. The first seconds after a boot run slower than the rest,
// so one block of each would charge the difference to whichever came first.
const slices = 4

// runTraced is the per-layer pass. It splits the run's seconds into three
// closed-loop parts on one booted system — both clients, in slices that
// alternate untraced and traced sessions, for two thirds; then one traced
// client walking both lists in turn — and then measures every layer in
// process (see lab).
func runTraced(w *workload, seconds int, traceOut string) (*result, error) {
	epoch := time.Now()
	third := time.Duration(seconds) * time.Second / 3
	warm := newPhaseStats()
	sys, err := boot(w, warm)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*result, error) { sys.shutdown(); return nil, err }

	// Sessions 3 and 4 land on workers 0 and 1 like sessions 1 and 2, so a
	// client keeps its worker whichever session it speaks through.
	var sessions []*tracedSession
	plain := make([]session, len(sys.clients))
	for i, c := range sys.clients {
		ts, err := sys.traceClient(c, epoch, warm)
		if err != nil {
			return fail(err)
		}
		sessions, plain[i] = append(sessions, ts), c.sess
	}
	heapBefore, txnsBefore := heapLiveMiB(), sys.srv.TxnStats()
	untraced, traced := newPhaseStats(), newPhaseStats()
	for i := 0; i < slices; i++ {
		into := untraced
		for j, c := range sys.clients {
			c.sess = plain[j]
			if i%2 == 1 {
				c.sess, into = sessions[j], traced
			}
		}
		st, err := phase(sys.clients, 2*third/slices)
		if err != nil {
			return fail(err)
		}
		into.merge(st)
	}
	heapAfter, txnsAfter := heapLiveMiB(), sys.srv.TxnStats()

	// One client: a single session takes both walks, a cycle of each in turn,
	// so only one worker ever has a job.
	for _, c := range sys.clients {
		c.sess = sessions[0]
	}
	wallSum0, wallCount0 := sys.wallHistogram()
	one := newPhaseStats()
	for deadline := time.Now().Add(third); time.Now().Before(deadline); {
		for _, c := range sys.clients {
			if err := c.oneCycle(one); err != nil {
				return fail(err)
			}
		}
	}
	one.wall = one.last.Sub(one.first)
	wallSum1, wallCount1 := sys.wallHistogram()

	all := newPhaseStats()
	for _, st := range []*phaseStats{warm, untraced, traced, one} {
		all.merge(st)
	}
	sys.finish(all)

	l, err := newLab(w.class, epoch)
	if err != nil {
		return nil, err
	}
	byType, err := l.byType(w)
	if err != nil {
		return nil, err
	}
	if traceOut != "" {
		logs := []*spanLog{l.log}
		for _, s := range sessions {
			logs = append(logs, s.log)
		}
		if err := writeSpans(traceOut, logs...); err != nil {
			return nil, err
		}
	}

	both := newPhaseStats()
	both.merge(untraced)
	both.merge(traced)
	mix := weigh(byType, opCounts(both))
	m := layerMetrics(mix)

	// The server's view of the one-client phase against the lab's view of the
	// same mix: what is left of the client's latency after the job itself and
	// the layers timed in process is socket, scheduler hand-off and retire.
	oneMix := weigh(byType, opCounts(one))
	oneOps := float64(one.attempted)
	jobWallUs := (wallSum1 - wallSum0) / oneOps * 1e6
	inProcessUs := 0.0
	for _, k := range []string{"wire.encode_query", "wire.decode_query", "sql.parse", "plan.prepare", "plan.build", "wire.encode_result", "wire.decode_result"} {
		inProcessUs += oneMix[k+".ns"] / 1e3
	}
	m["server.job_wall_us"] = jobWallUs
	m["server.residual_us"] = mean(one.all())*1e6 - jobWallUs - inProcessUs
	m["server.one_client_stmts_per_s"] = one.rate()

	// The host's clock, from the slices that ran untraced.
	lat := sorted(untraced.all())
	m["client.stmts_per_s"] = untraced.rate()
	m["client.lat_p50_ms"] = percentile(lat, 0.50) * 1e3
	m["client.lat_p90_ms"] = percentile(lat, 0.90) * 1e3
	typeNotes := clientMetrics(m, both)
	m["client.trace_overhead_pct"] = (untraced.rate() - traced.rate()) / untraced.rate() * 100
	typeNotes = append(typeNotes, writerMetrics(m, sessions)...)
	commits := float64(txnsAfter.Committed - txnsBefore.Committed)
	m["txn.committed"] = commits
	m["txn.aborted"] = float64(txnsAfter.Aborted - txnsBefore.Aborted)
	if commits > 0 {
		m["storage.heap_bytes_per_txn"] = (heapAfter - heapBefore) * (1 << 20) / commits
	}
	if l.commits > 0 {
		m["storage.wal_records_per_txn"] = float64(l.sides[0].eng.WAL().Records.Load()) / float64(l.commits)
	}
	m["core.profile_empty_ns"] = l.profileEmptyNs()
	m["core.calibrate_s"], m["tpch.generate_s"], m["tpch.load_s"] = l.calibrateS, l.generateS, l.loadS

	// A metric the workload has nothing to say about reads zero.
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	r := &result{workload: w.name, metrics: m, attempted: all.attempted, failed: all.failed, errs: all.errs}
	r.notes = append(r.notes,
		fmt.Sprintf("two clients untraced %.1f s n=%d, traced %.1f s n=%d; one client %.1f s n=%d in %d server jobs",
			untraced.wall.Seconds(), untraced.attempted, traced.wall.Seconds(), traced.attempted,
			one.wall.Seconds(), one.attempted, wallCount1-wallCount0),
		fmt.Sprintf("lab: %d operations measured and replayed, at least %d of each type; one-client exec.execute %.1f µs against server.job_wall_us",
			l.spanID, labReps, oneMix["exec.execute.ns"]/1e3))
	r.notes = append(r.notes, typeNotes...)
	self := selfByName(l.log.spans)
	for _, typ := range sortedKeys(byType) {
		t := byType[typ]
		r.notes = append(r.notes, fmt.Sprintf("lab %-6s parse %.1f µs, prepare %.1f µs, build %.1f µs, execute %.1f µs of which memsim %.1f µs; vector nodes %g of %g; harness self time %.1f µs in all",
			typ, t["sql.parse.ns"]/1e3, t["plan.prepare.ns"]/1e3, t["plan.build.ns"]/1e3, t["exec.execute.ns"]/1e3, t["memsim.replay.ns"]/1e3,
			t["plan.vector_nodes"], t["plan.nodes"], float64(self["op:"+typ])/1e3))
	}
	return r, nil
}

// clientMetrics fills in what the two-client phases saw from outside and
// returns the lines that name each operation type's median.
func clientMetrics(m map[string]float64, both *phaseStats) []string {
	tail := sorted(both.all())
	p := min(tailPercentile(len(tail)), 0.99)
	m["client.lat_p99_ms"] = percentile(tail, p) * 1e3
	m["client.lat_tail_pct"] = p * 100
	notes := []string{fmt.Sprintf("client.lat_p99_ms is p%g of n=%d, the highest percentile with ten samples beyond it", p*100, len(tail))}
	// Every workload can name its fastest and its slowest operation type;
	// BENCHMARK.json cannot list a type only some workloads have.
	for _, typ := range sortedKeys(both.lat) {
		p50 := median(both.lat[typ]) * 1e3
		if fastest, ok := m["client.fastest_type_p50_ms"]; !ok || p50 < fastest {
			m["client.fastest_type_p50_ms"] = p50
		}
		m["client.slowest_type_p50_ms"] = max(m["client.slowest_type_p50_ms"], p50)
		notes = append(notes, fmt.Sprintf("client.%s_p50_ms %.6g (n=%d)", typ, p50, len(both.lat[typ])))
	}
	return notes
}

// writerMetrics says where the writer's time went, verb by verb, as the
// traced sessions saw it: as shares, so that a read-only workload reports a
// plain zero, with each verb's median in the returned lines.
func writerMetrics(m map[string]float64, sessions []*tracedSession) []string {
	verbs := []string{"begin", "update", "commit", "insert", "delete"}
	rt, spent, total := make(map[string][]float64), make(map[string]float64), 0.0
	for _, verb := range verbs {
		for _, s := range sessions {
			rt[verb] = append(rt[verb], s.rt[verb]...)
		}
		for _, d := range rt[verb] {
			spent[verb] += d
		}
		total += spent[verb]
	}
	if total == 0 {
		return nil
	}
	var notes []string
	for _, verb := range verbs {
		m["txn."+verb+"_share"] = spent[verb] / total
		notes = append(notes, fmt.Sprintf("txn.%s_us p50 %.6g (n=%d)", verb, median(rt[verb])*1e6, len(rt[verb])))
	}
	return notes
}

// layerMetrics turns one operation's weighted costs into the named per-layer
// metrics that come from the lab.
func layerMetrics(s sample) map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"wire.encode_query_ns":  s["wire.encode_query.ns"],
		"wire.decode_query_ns":  s["wire.decode_query.ns"],
		"wire.encode_result_ns": s["wire.encode_result.ns"],
		"wire.decode_result_ns": s["wire.decode_result.ns"],
		"wire.result_bytes":     s["wire.result_bytes"],
		"sql.parse_ns":          s["sql.parse.ns"],
		"sql.parse_allocs":      s["sql.parse.allocs"],

		"plan.prepare_ns":         s["plan.prepare.ns"],
		"plan.prepare_allocs":     s["plan.prepare.allocs"],
		"plan.build_ns":           s["plan.build.ns"],
		"plan.vector_node_share":  ratio(s["plan.vector_nodes"], s["plan.nodes"]),
		"plan.pred_over_measured": ratio(s["plan.predicted_j"], s["plan.measured_j"]),

		"exec.execute_ns":       s["exec.execute.ns"],
		"exec.operator_self_ns": s["exec.execute.ns"] - s["memsim.replay.ns"],
		"exec.allocs_per_stmt":  s["exec.execute.allocs"],
		"exec.bytes_per_stmt":   s["exec.execute.bytes"],
		"exec.rows_out":         s["exec.rows_out"],

		"memsim.replay_ns":             s["memsim.replay.ns"],
		"memsim.replay_ns_per_op":      ratio(s["memsim.replay.ns"], s["memsim.sim_ops"]),
		"memsim.share_of_execute":      ratio(s["memsim.replay.ns"], s["exec.execute.ns"]),
		"memsim.sim_ops_per_stmt":      s["memsim.sim_ops"],
		"memsim.trace_events_per_stmt": s["memsim.trace_events"],
		"memsim.l1d_hit_rate":          ratio(s["ctr.l1d_hits"], s["ctr.l1d_accesses"]),
		"memsim.l2_hit_rate":           ratio(s["ctr.l2_hits"], s["ctr.l2_accesses"]),
		"memsim.l3_hit_rate":           ratio(s["ctr.l3_hits"], s["ctr.l3_accesses"]),
		"memsim.dram_per_stmt":         s["ctr.dram"],
		"memsim.prefetch_per_stmt":     s["ctr.prefetch"],

		"cpusim.cycles_per_stmt": s["ctr.cycles"],
		"cpusim.ipc":             ratio(s["ctr.instructions"], s["ctr.cycles"]),
		"cpusim.stall_share":     ratio(s["ctr.stall_cycles"], s["ctr.cycles"]),

		"core.l1d_share": ratio(s["core.E_L1D"]+s["core.E_Reg2L1D"], s["core.e_active"]),
	}
	for _, c := range core.Components() {
		m["core."+strings.ToLower(c.String())+"_j"] = s["core."+c.String()]
	}
	return m
}
