package server_test

import (
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"energydb/internal/core"
	"energydb/internal/obs"
	"energydb/internal/server"
	"energydb/internal/server/client"
)

// TestCloseUnderLoadPartitionInvariant is the shutdown-drain regression
// test: 16 sessions stream statements while the server closes mid-flight.
// Because statements now retire (ledger adds included) inside their worker
// job, Close — which drains the workers — cannot return while any executed
// statement is unaccounted, so immediately after Close the session-side sum
// (live ledgers + retired accumulator) must equal the server ledger
// exactly: same statement count, same energy to float tolerance.
func TestCloseUnderLoadPartitionInvariant(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 4})

	const clients = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
			if err != nil {
				return // server may already be closing
			}
			defer conn.Close()
			<-start
			for {
				if _, err := conn.Query(`\q6`); err != nil {
					if _, ok := err.(*client.QueryError); ok {
						continue // statement error: session still usable
					}
					return // transport closed by shutdown
				}
			}
		}(i)
	}
	close(start)
	// Close once statements are genuinely in flight (fixed sleeps are too
	// short under -race, where setup dominates).
	deadline := time.Now().Add(30 * time.Second)
	for srv.Totals().Queries < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The invariant must hold at this instant — not after the clients have
	// noticed and unwound — because Close drained the workers.
	total := srv.Totals()
	bySession := srv.SessionTotals()
	if bySession.Queries != total.Queries {
		t.Errorf("session ledgers counted %d statements, server ledger %d: shutdown lost retirements",
			bySession.Queries, total.Queries)
	}
	if total.Queries == 0 {
		t.Fatal("no statements retired before Close; test exercised nothing")
	}
	checkClose := func(name string, a, b float64) {
		if math.Abs(a-b) > 1e-9*math.Max(math.Abs(b), 1) {
			t.Errorf("%s: session side %g != server ledger %g", name, a, b)
		}
	}
	checkClose("EActive", bySession.EActive, total.EActive)
	checkClose("EBusy", bySession.EBusy, total.EBusy)
	checkClose("EBackground", bySession.EBackground, total.EBackground)
	checkClose("Seconds", bySession.Seconds, total.Seconds)
	for c := core.Component(0); c < core.NumComponents; c++ {
		checkClose(c.String(), bySession.Joules[c], total.Joules[c])
	}

	wg.Wait()
	// After every session has unwound (all ledgers in the retired
	// accumulator), the invariant still holds.
	if after := srv.SessionTotals(); after.Queries != total.Queries {
		t.Errorf("after unwind: session ledgers counted %d statements, want %d", after.Queries, total.Queries)
	}
}

// TestStatsCommand drives the STATS round trip end to end: statements run,
// then the wire snapshot's registry must carry the totals, the Eq. 1
// component split and the other series, beside the slow/hot boards with
// plan summaries.
func TestStatsCommand(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1})
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// clamped is the energy by which the replies' components over-sum their
	// EActive: BreakdownCounters floors a negative E_other residual at zero,
	// and the cold first statement is fill-dominated enough to hit that floor.
	clamped := 0.0
	for _, q := range []string{`\q6`, "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag"} {
		res, err := conn.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		modelled := 0.0
		for _, j := range res.Energy.Joules {
			modelled += j
		}
		if res.Energy.Joules[core.CompOther] == 0 {
			clamped += modelled - res.Energy.EActive
		} else if math.Abs(modelled-res.Energy.EActive) > 1e-9*res.Energy.EActive {
			t.Errorf("%q: component joules sum %g != EActive %g", q, modelled, res.Energy.EActive)
		}
	}
	if _, err := conn.Query("SELECT nothing FROM nowhere"); err == nil {
		t.Fatal("expected statement error")
	}

	snap, err := conn.Stats()
	if err != nil {
		t.Fatal(err)
	}
	v := series(snap.Metrics)
	if snap.Banner == "" || v["energyd_workers"].Value != 1 || v["energyd_sessions_active"].Value != 1 {
		t.Errorf("header: banner=%q workers=%g sessions=%g",
			snap.Banner, v["energyd_workers"].Value, v["energyd_sessions_active"].Value)
	}
	if q := v["energyd_statements_total/ok"].Value; q != 2 {
		t.Errorf("queries = %g, want 2", q)
	}
	total := srv.Totals()
	if active := v["energyd_active_joules_total"].Value; active != total.EActive || v["energyd_l1d_share"].Value != total.L1DShare() {
		t.Errorf("snapshot totals diverge from server ledger")
	}
	sum := 0.0
	for _, c := range core.Components() {
		sum += v["energyd_energy_joules_total/"+c.String()].Value
	}
	if math.Abs(sum-clamped-total.EActive) > 1e-9*total.EActive {
		t.Errorf("component joules sum %g - clamped %g != EActive %g", sum, clamped, total.EActive)
	}
	if len(snap.Engines) != 1 || !strings.Contains(snap.Engines[0], "SQLite") {
		t.Errorf("engines = %v", snap.Engines)
	}

	// Registry series made the trip: find the latency histogram and the
	// error counter.
	for _, want := range []string{
		"energyd_statement_wall_seconds", "energyd_statement_joules",
		"energyd_energy_joules_total/E_L1D", "energyd_l1d_share",
		"energyd_statements_total/error", "energyd_errors_total/plan",
		"energyd_worker_pstate/0", "energyd_pstate_transitions_total/0",
	} {
		if _, ok := v[want]; !ok {
			t.Errorf("snapshot missing metric series %s", want)
		}
	}

	// Boards: both statements retired; the SQL one carries a plan summary.
	if len(snap.Slowest) != 2 || len(snap.Hottest) != 2 {
		t.Fatalf("boards: %d slow, %d hot, want 2 each", len(snap.Slowest), len(snap.Hottest))
	}
	foundPlan := false
	for _, e := range snap.Hottest {
		if e.Name == "query" && strings.Contains(e.Plan, "HashAggregate") {
			foundPlan = true
		}
		if e.EActive <= 0 || e.WallSeconds <= 0 {
			t.Errorf("board entry %q: EActive=%g wall=%g", e.Name, e.EActive, e.WallSeconds)
		}
	}
	if !foundPlan {
		t.Errorf("no board entry carries the winning plan summary: %+v", snap.Hottest)
	}
}

// TestMetricsEndpoint scrapes the HTTP surface energyd mounts on
// -metrics-addr: /metrics must be Prometheus text carrying the core
// families with live values, /healthz must answer ok.
func TestMetricsEndpoint(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 2})
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query(`\q6`); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("EXPLAIN ENERGY SELECT COUNT(*) AS n FROM lineitem"); err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(srv.ObsHandler())
	defer hs.Close()

	res, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || string(body) != "ok\n" {
		t.Errorf("/healthz: %d %q", res.StatusCode, body)
	}

	res, err = hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	text := string(body)
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE energyd_statement_joules histogram",
		"# TYPE energyd_statement_wall_seconds histogram",
		"# TYPE energyd_statement_seconds histogram",
		"# TYPE energyd_statement_rows histogram",
		"# TYPE energyd_energy_joules_total gauge",
		"# TYPE energyd_active_joules_total gauge",
		"# TYPE energyd_l1d_share gauge",
		"# TYPE energyd_worker_pstate gauge",
		"# TYPE energyd_pstate_transitions_total counter",
		"# TYPE energyd_slowlog_slowest_seconds gauge",
		"energyd_statements_total{status=\"ok\"} 2",
		"energyd_connections_total 1",
		"energyd_sessions_active 1",
		"energyd_workers 2",
		"energyd_engines 1",
		`energyd_energy_joules_total{component="E_L1D"}`,
		`energyd_worker_pstate{worker="0"}`,
		`energyd_worker_pstate{worker="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The statement histograms actually observed both statements.
	if !strings.Contains(text, "energyd_statement_joules_count 2") {
		t.Errorf("/metrics: statement histogram count != 2:\n%s", grepLines(text, "energyd_statement_joules"))
	}
	// The live L1D-share gauge sits in a plausible band (>0, <1).
	share := srv.Totals().L1DShare()
	if share <= 0 || share >= 1 {
		t.Errorf("live L1D share = %g", share)
	}
}

// TestLaneWaitCountsJobs checks energyd_lane_wait_seconds: one observation
// per job that ran on a worker — each handshake's engine attachment, each
// statement past the parser (a plan error included), each transaction
// control frame — and none for a parse error or a STATS frame.
func TestLaneWaitCountsJobs(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 2})
	opts := client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"}
	jobs := uint64(0)
	for i := 0; i < 2; i++ {
		conn, err := client.Dial(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		jobs++ // the handshake
		if _, err := conn.Query(`\q6`); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := conn.Rollback(); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Query("SELECT x FROM missing_table"); err == nil {
			t.Fatal("expected plan error")
		}
		jobs += 4
		if _, err := conn.Query("SELEC nope"); err == nil {
			t.Fatal("expected parse error")
		}
		if _, err := conn.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	h := series(srv.Metrics().Snapshot())["energyd_lane_wait_seconds"]
	if h.Count != jobs {
		t.Errorf("energyd_lane_wait_seconds_count = %d, want %d jobs", h.Count, jobs)
	}
	if h.Sum < 0 {
		t.Errorf("energyd_lane_wait_seconds_sum = %g", h.Sum)
	}
}

// TestErrorClassCounters checks the by-class error attribution.
func TestErrorClassCounters(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1, StmtTimeout: time.Nanosecond})
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Query("SELEC nope"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := conn.Query("SELECT x FROM missing_table"); err == nil {
		t.Fatal("expected plan error")
	}
	if _, err := conn.Query(`\q1`); err == nil {
		t.Fatal("expected timeout")
	}

	var sb strings.Builder
	if err := srv.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`energyd_errors_total{class="parse"} 1`,
		`energyd_errors_total{class="plan"} 1`,
		`energyd_errors_total{class="timeout"} 1`,
		`energyd_statements_total{status="error"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, grepLines(text, "errors_total"))
		}
	}
	// The timed-out statement's joules are in the ledgers, so they must be
	// in the energy series too.
	assertJoulesMatchLedgers(t, srv)
}

// TestFailedStatementJoulesCounted loses a write-write conflict, a failure
// that happens after the statement has scanned, and checks that its joules
// reach the energy series as they reach the ledgers.
func TestFailedStatementJoulesCounted(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1})
	opts := client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"}
	first, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	second, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	for _, q := range []string{"BEGIN", "UPDATE nation SET n_regionkey = 1 WHERE n_nationkey = 3"} {
		if _, err := first.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.Totals().EActive
	if _, err := second.Query("UPDATE nation SET n_regionkey = 2 WHERE n_nationkey = 3"); err == nil {
		t.Fatal("expected a write-write conflict")
	}
	if srv.Totals().EActive == before {
		t.Fatal("the failed write spent no energy; the check below would prove nothing")
	}
	assertJoulesMatchLedgers(t, srv)
}

// TestPredictionErrorHistogram checks which records reach
// energyd_prediction_error_ratio: the planned statements that ran (here \q6
// and a SELECT), not transaction controls, an INSERT, a plain EXPLAIN (its
// region is planning) or a statement that failed to plan.
func TestPredictionErrorHistogram(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1})
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, q := range []string{
		`\q6`,
		"SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag",
		"BEGIN",
		"INSERT INTO region VALUES (1000, 'PRED')",
		"COMMIT",
		"EXPLAIN SELECT COUNT(*) AS n FROM lineitem",
	} {
		if _, err := conn.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := conn.Query("SELECT nothing FROM nowhere"); err == nil {
		t.Fatal("expected statement error")
	}
	h := series(srv.Metrics().Snapshot())["energyd_prediction_error_ratio"]
	if h.Count != 2 {
		t.Errorf("energyd_prediction_error_ratio_count = %d, want 2", h.Count)
	}
	if h.Sum <= 0 || len(h.Buckets) != 10 || h.Buckets[0].LE != "0.25" || h.Buckets[4].LE != "1" || h.Buckets[8].LE != "4" {
		t.Errorf("energyd_prediction_error_ratio: sum %g, buckets %+v", h.Sum, h.Buckets)
	}
}

// assertJoulesMatchLedgers checks that the energy series hold what the
// ledgers hold: E_active and every Eq. 1 component.
func assertJoulesMatchLedgers(t *testing.T, srv *server.Server) {
	t.Helper()
	v, tot := series(srv.Metrics().Snapshot()), srv.Totals()
	if active := v["energyd_active_joules_total"].Value; active != tot.EActive {
		t.Errorf("energyd_active_joules_total = %g, ledgers hold %g", active, tot.EActive)
	}
	for _, c := range core.Components() {
		if j := v["energyd_energy_joules_total/"+c.String()].Value; j != tot.Joules[c] {
			t.Errorf("energyd_energy_joules_total{component=%q} = %g, ledgers hold %g", c, j, tot.Joules[c])
		}
	}
}

// series indexes a registry snapshot by family name, or by family name and
// its one label's value ("energyd_energy_joules_total/E_L1D").
func series(snap obs.Snapshot) map[string]obs.MetricSnapshot {
	out := make(map[string]obs.MetricSnapshot)
	for _, f := range snap.Families {
		for _, m := range f.Metrics {
			key := f.Name
			if len(m.Labels) > 0 {
				key += "/" + m.Labels[0].Value
			}
			out[key] = m
		}
	}
	return out
}

// TestGovernorOptIn checks Config.Governor wiring: with the stall-aware
// governor attached, a memory-heavy statement stream moves the worker
// P-state gauge off the fixed default and the transition counter advances.
func TestGovernorOptIn(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1, Governor: true})
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if _, err := conn.Query(`\q6`); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := srv.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `energyd_worker_pstate{worker="0"}`) {
		t.Fatalf("no worker pstate gauge:\n%s", grepLines(text, "pstate"))
	}
	// Transition count is workload-dependent; the gauge must at least be a
	// valid exported series and the counter family present.
	if !strings.Contains(text, `energyd_pstate_transitions_total{worker="0"}`) {
		t.Fatalf("no transition counter:\n%s", grepLines(text, "pstate"))
	}
}

func grepLines(text, needle string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, needle) {
			out = append(out, l)
		}
	}
	return fmt.Sprintf("%s\n", strings.Join(out, "\n"))
}

// TestWorkerArenaBytesGrows: the worker's arena gauge counts the simulated
// bytes its engine views reserve, which every analytic statement adds to and
// nothing releases.
func TestWorkerArenaBytesGrows(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1})
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	arena := func() float64 {
		return series(srv.Metrics().Snapshot())["energyd_worker_arena_bytes/0"].Value
	}
	last := arena()
	for _, q := range []string{`\q6`, `\q1`, `\q6`} {
		if _, err := conn.Query(q); err != nil {
			t.Fatal(err)
		}
		now := arena()
		t.Logf("after %s: %.0f bytes", q, now)
		if now <= last {
			t.Fatalf("after %s the arena gauge reads %.0f bytes, %.0f before", q, now, last)
		}
		last = now
	}
}
