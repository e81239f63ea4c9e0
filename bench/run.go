package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"energydb/internal/server"
	"energydb/internal/server/client"
)

// session is what a closed-loop client needs from its connection. The timed
// run uses internal/server/client; the traced pass speaks the wire protocol
// itself so it can time each phase of a round trip.
type session interface {
	Query(text string) (*client.Result, error)
	Begin() error
	Commit() error
	Close() error
}

type clientSession struct{ *client.Conn }

func (s clientSession) Begin() error { _, err := s.Conn.Begin(); return err }

// engineOpts is the engine every session negotiates.
func engineOpts(w *workload) client.Options {
	return client.Options{Engine: "postgresql", Setting: "baseline", Class: w.class.String()}
}

func dialClient(addr string, w *workload) (session, error) {
	c, err := client.Dial(addr, engineOpts(w))
	if err != nil {
		return nil, err
	}
	return clientSession{c}, nil
}

// system is one booted server with its warmed-up clients.
type system struct {
	w        *workload
	srv      *server.Server
	addr     string
	served   chan error
	hot      *hotState
	clients  []*loopClient // the workload's clients, in client order
	sessions []session     // every session opened, so the ledger check can account for all of them
}

// loopClient walks one operation list over one session.
type loopClient struct {
	sys   *system
	sess  session
	list  []op
	cycle int
	pos   int   // next index into list
	n     int64 // operations issued so far: the running number statements embed

	results []*client.Result
	texts   []string
}

// boot starts a server on a loopback port, connects the workload's clients
// one after the other (so client i lands on worker i) and runs the workload's
// untimed warm-up cycles on each: the first statement on a session loads the
// store or builds the worker's view, and the first indexed SELECT costs tens
// of ms cold.
func boot(w *workload, st *phaseStats) (*system, error) {
	srv, err := server.New(server.Config{Workers: numClients})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	sys := &system{w: w, srv: srv, addr: ln.Addr().String(), served: make(chan error, 1), hot: &hotState{}}
	go func() { sys.served <- srv.Serve(ln) }()
	for i := 0; i < numClients; i++ {
		c := &loopClient{sys: sys, list: w.lists[i], cycle: w.cycle[i]}
		if c.sess, err = sys.connect(dialClient); err != nil {
			sys.shutdown()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		sys.clients = append(sys.clients, c)
		for j := 0; j < w.warm; j++ {
			if err := c.oneCycle(st); err != nil {
				sys.shutdown()
				return nil, err
			}
		}
	}
	return sys, nil
}

// connect opens one more session on the server.
func (sys *system) connect(dial func(string, *workload) (session, error)) (session, error) {
	sess, err := dial(sys.addr, sys.w)
	if err != nil {
		return nil, err
	}
	sys.sessions = append(sys.sessions, sess)
	return sess, nil
}

// shutdown closes every session and the server and waits for Serve to return.
func (sys *system) shutdown() {
	for _, sess := range sys.sessions {
		sess.Close()
	}
	sys.srv.Close()
	<-sys.served
}

// phaseStats is what one client (or, merged, one phase) observed.
type phaseStats struct {
	lat       map[string][]float64 // seconds per operation, by type
	attempted int
	failed    int
	first     time.Time     // first send
	last      time.Time     // last reply
	wall      time.Duration // time measured: last − first, summed over merged phases
	errs      []string      // the first few failures, for the report
}

func newPhaseStats() *phaseStats { return &phaseStats{lat: make(map[string][]float64)} }

func (st *phaseStats) fail(err error) {
	st.failed++
	if len(st.errs) < 5 {
		st.errs = append(st.errs, err.Error())
	}
}

// merge adds what a later phase saw.
func (st *phaseStats) merge(o *phaseStats) {
	st.wall += o.wall
	for t, l := range o.lat {
		st.lat[t] = append(st.lat[t], l...)
	}
	st.attempted += o.attempted
	st.failed += o.failed
	if st.first.IsZero() || (!o.first.IsZero() && o.first.Before(st.first)) {
		st.first = o.first
	}
	if o.last.After(st.last) {
		st.last = o.last
	}
	for _, e := range o.errs {
		if len(st.errs) < 5 {
			st.errs = append(st.errs, e)
		}
	}
}

func (st *phaseStats) all() []float64 {
	var out []float64
	for _, l := range st.lat {
		out = append(out, l...)
	}
	return out
}

// rate is completed operations per second of wall time between the first
// send and the last reply.
func (st *phaseStats) rate() float64 {
	if st.wall > 0 {
		return float64(st.attempted-st.failed) / st.wall.Seconds()
	}
	return 0
}

// oneCycle issues the next whole cycle of the client's list. Only a transport
// failure is returned: a wrong or refused statement is counted in st and the
// walk goes on.
func (c *loopClient) oneCycle(st *phaseStats) error {
	for i := 0; i < c.cycle; i++ {
		if err := c.do(&c.list[c.pos], st); err != nil {
			return err
		}
		c.pos = (c.pos + 1) % len(c.list)
	}
	return nil
}

// until issues whole cycles until the deadline has passed.
func (c *loopClient) until(deadline time.Time, st *phaseStats) error {
	for {
		if err := c.oneCycle(st); err != nil || !time.Now().Before(deadline) {
			return err
		}
	}
}

// do runs one operation, times it, and then checks every result it got.
func (c *loopClient) do(o *op, st *phaseStats) error {
	c.n++
	n := c.n
	c.texts, c.results = c.texts[:0], c.results[:0]
	for i := range o.stmts {
		c.texts = append(c.texts, expand(o.stmts[i].text, n))
	}
	hot := c.sys.hot
	var floor int64
	if s := &o.stmts[0]; s.verify == verifyHotRead {
		floor = hot.committed[s.hot].Load()
	}

	var opErr error
	start := time.Now()
	if st.first.IsZero() {
		st.first = start
	}
	if o.txn {
		opErr = c.sess.Begin()
	}
	for i := range o.stmts {
		if opErr != nil {
			break
		}
		if s := &o.stmts[i]; s.verify == verifyHotWrite {
			hot.issued[s.hot].Store(n)
		}
		var res *client.Result
		if res, opErr = c.sess.Query(c.texts[i]); opErr == nil {
			c.results = append(c.results, res)
		}
	}
	if o.txn && opErr == nil {
		opErr = c.sess.Commit()
	}
	st.last = time.Now()
	if opErr == nil {
		for i := range o.stmts {
			if s := &o.stmts[i]; s.verify == verifyHotWrite {
				hot.committed[s.hot].Store(n)
			}
		}
	}
	st.lat[o.typ] = append(st.lat[o.typ], st.last.Sub(start).Seconds())
	st.attempted++

	if opErr != nil {
		st.fail(fmt.Errorf("%s #%d: %w", o.typ, n, opErr))
		var qe *client.QueryError
		if errors.As(opErr, &qe) {
			return nil
		}
		return opErr
	}
	for i, res := range c.results {
		if err := c.check(&o.stmts[i], res, n, floor); err != nil {
			st.fail(fmt.Errorf("%s #%d: %w", o.typ, n, err))
			break
		}
	}
	return nil
}

func (c *loopClient) check(s *stmt, res *client.Result, n, floor int64) error {
	if err := checkEnergy(&res.Energy); err != nil {
		return err
	}
	if s.verify == verifyHotRead {
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			return fmt.Errorf("%q returned %d rows, want one value", s.text, len(res.Rows))
		}
		return c.sys.w.hot.checkRead(s.hot, res.Rows[0][0].F, floor, c.sys.hot.issued[s.hot].Load())
	}
	want := s.want
	if s.wantFirst != 0 && n <= 5 {
		want = s.wantFirst
	}
	if got := hashResult(res.Cols, res.Rows, s.pick, s.ordered); got != want {
		return fmt.Errorf("%q: result hash %016x, want %016x", s.text, got, want)
	}
	return nil
}

// phase runs the given clients side by side until the deadline and merges
// what they saw.
func phase(clients []*loopClient, d time.Duration) (*phaseStats, error) {
	deadline := time.Now().Add(d)
	stats := make([]*phaseStats, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		stats[i] = newPhaseStats()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.until(deadline, stats[i])
		}()
	}
	wg.Wait()
	total := newPhaseStats()
	for _, st := range stats {
		total.merge(st)
	}
	total.wall = total.last.Sub(total.first)
	return total, errors.Join(errs...)
}

// finish runs the after-run checks on a quiet system, shuts it down and
// checks the ledgers. Each check counts as one attempted operation.
func (sys *system) finish(st *phaseStats) {
	checked := func(err error) {
		st.attempted++
		if err != nil {
			st.fail(err)
		}
	}
	if sys.w.hot != nil {
		checked(sys.checkHotSet())
	}
	// One closing statement per session tells the client its final ledger
	// total: a session that ended on a Commit frame has spent energy no
	// EnergyReport has told it about yet.
	last := make([]float64, 0, len(sys.sessions))
	for _, sess := range sys.sessions {
		res, err := sess.Query("SELECT n_name FROM nation WHERE n_nationkey = 0")
		if err != nil {
			checked(fmt.Errorf("closing statement: %w", err))
			continue
		}
		last = append(last, res.Energy.SessionActive)
	}
	txns := sys.srv.TxnStats()
	sys.shutdown()
	checked(checkLedgers(sys.srv, last))
	if txns.Aborted != 0 {
		checked(fmt.Errorf("%d transactions aborted; the workload has one writer and expects none", txns.Aborted))
	}
}

// checkHotSet reads every hot key back and compares it with the writer's
// last committed value.
func (sys *system) checkHotSet() error {
	for i, k := range sys.w.hot.keys {
		res, err := sys.sessions[0].Query(fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderkey = %d", k))
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("order %d: %d rows after the run", k, len(res.Rows))
		}
		if err := sys.w.hot.checkFinal(i, res.Rows[0][0].F, sys.hot.committed[i].Load()); err != nil {
			return err
		}
	}
	return nil
}

// setupRuns is how many times a run boots the system; setup_s is the median.
const setupRuns = 3

// bootTimed boots the system setupRuns times, keeping only the last, and
// returns the median boot time. Warm-up failures land in st.
func bootTimed(w *workload, st *phaseStats) (*system, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		sys, err := boot(w, st)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupRuns-1 {
			return sys, median(times), nil
		}
		sys.shutdown()
	}
}

// heapLiveMiB is the live heap after a collection.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// result is one run's outcome: what the driver reads from the last line.
type result struct {
	workload  string
	metrics   map[string]float64
	attempted int
	failed    int
	errs      []string
	notes     []string // human-readable lines: sample counts, list hashes
}

// runEndToEnd is the untraced run: boot, timed closed loop, checks.
func runEndToEnd(w *workload, seconds int) (*result, error) {
	warm := newPhaseStats()
	sys, setupS, err := bootTimed(w, warm)
	if err != nil {
		return nil, err
	}
	before := sys.srv.Totals()
	st, err := phase(sys.clients, time.Duration(seconds)*time.Second)
	if err != nil {
		sys.shutdown()
		return nil, err
	}
	after := sys.srv.Totals()
	heap := heapLiveMiB()
	rate := st.rate()
	ops := float64(st.attempted)
	lat := sorted(st.all())

	st.attempted += warm.attempted
	st.failed += warm.failed
	st.errs = append(warm.errs, st.errs...)
	sys.finish(st)

	r := &result{workload: w.name, attempted: st.attempted, failed: st.failed, errs: st.errs}
	r.metrics = map[string]float64{
		"setup_s":              setupS,
		"stmts_per_s":          rate,
		"lat_p50_ms":           percentile(lat, 0.50) * 1e3,
		"lat_p90_ms":           percentile(lat, 0.90) * 1e3,
		"sim_joules_per_stmt":  (after.EActive - before.EActive) / ops,
		"sim_seconds_per_stmt": (after.Seconds - before.Seconds) / ops,
		"heap_live_mb":         heap,
	}
	r.notes = append(r.notes, fmt.Sprintf("latency samples n=%d (highest supported percentile p%g)", len(lat), tailPercentile(len(lat))*100))
	r.notes = append(r.notes, typeNotes(st)...)
	return r, nil
}

// typeNotes lists each operation type's share and median latency, so a
// reader can see which type owns each quantile.
func typeNotes(st *phaseStats) []string {
	total := 0
	for _, l := range st.lat {
		total += len(l)
	}
	var out []string
	for _, t := range sortedKeys(st.lat) {
		l := sorted(st.lat[t])
		out = append(out, fmt.Sprintf("%-6s n=%-7d %5.1f%% of operations, p50 %.4g ms, p90 %.4g ms",
			t, len(l), 100*float64(len(l))/float64(total), percentile(l, 0.5)*1e3, percentile(l, 0.9)*1e3))
	}
	return out
}
