package server_test

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/db/value"
	"energydb/internal/mubench"
	"energydb/internal/rapl"
	"energydb/internal/server"
	"energydb/internal/server/client"
	"energydb/internal/tpch"
)

// startServer brings up a server on a loopback listener and tears it down
// with the test.
func startServer(t testing.TB) (*server.Server, string) {
	t.Helper()
	return startServerCfg(t, server.Config{})
}

// startServerCfg is startServer with a caller-chosen config (worker count,
// timeouts); Scale defaults to the fast 0.1 calibration.
func startServerCfg(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.Scale == 0 {
		cfg.Scale = 0.1
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// directEngine builds the single-process reference: same profile, knobs and
// dataset on its own machine, executed without the server.
func directEngine(t testing.TB) *engine.Engine {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(engine.SQLite, m, engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	return e
}

// directTPCHRows is what \qN must return: the rows of query N's SQL text
// planned and run in-process.
func directTPCHRows(t testing.TB, e *engine.Engine, id int) []value.Row {
	t.Helper()
	q, err := tpch.SQLByID(id)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := plan.Run(e, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func rowsEqual(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !value.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestServerE2E spins up the server, drives 16 concurrent client sessions
// through TPC-H Q1/Q6 and a SQL statement, and checks that every session
// sees exactly the rows direct engine execution produces, that every
// response carries positive Active energy, and that the per-session energy
// ledgers are disjoint: they sum to the server-wide total, component by
// component.
func TestServerE2E(t *testing.T) {
	srv, addr := startServer(t)

	direct := directEngine(t)
	wantQ1 := directTPCHRows(t, direct, 1)
	wantQ6 := directTPCHRows(t, direct, 6)
	const stmt = "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag"
	wantSQL, _, err := plan.Run(direct, stmt)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	type sessionResult struct {
		queries  uint64
		active   float64
		reported float64 // sum of per-query EActive seen by the client
		joules   [8]float64
	}
	results := make([]sessionResult, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", i, err)
				return
			}
			defer conn.Close()
			// \q1 goes first: its scan leaves lineitem resident in the
			// worker's buffer pool, so Q6 plans the same warm index range
			// scan on every worker that it does on the direct engine. A
			// cold worker would pick the sequential scan, which sums
			// revenue in heap order and differs in the last bits.
			steps := []struct {
				text string
				want []value.Row
			}{
				{`\q1`, wantQ1},
				{`\q6`, wantQ6},
				{stmt, wantSQL},
			}
			var r sessionResult
			for _, step := range steps {
				res, err := conn.Query(step.text)
				if err != nil {
					errs <- fmt.Errorf("client %d: %q: %w", i, step.text, err)
					return
				}
				if !rowsEqual(res.Rows, step.want) {
					errs <- fmt.Errorf("client %d: %q: rows differ from direct execution (%d vs %d rows)",
						i, step.text, len(res.Rows), len(step.want))
					return
				}
				if res.Energy.EActive <= 0 {
					errs <- fmt.Errorf("client %d: %q: non-positive EActive %g", i, step.text, res.Energy.EActive)
					return
				}
				r.queries = res.Energy.SessionQueries
				r.active = res.Energy.SessionActive
				r.reported += res.Energy.EActive
				for c, j := range res.Energy.Joules {
					r.joules[c] += j
				}
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Per-session ledgers: each session saw exactly its own statements,
	// and its ledger total is the sum of its own reports.
	sum := 0.0
	for i, r := range results {
		if r.queries != 3 {
			t.Errorf("session %d: ledger counted %d queries, want 3", i, r.queries)
		}
		if math.Abs(r.active-r.reported) > 1e-9*math.Max(r.active, 1) {
			t.Errorf("session %d: ledger total %g != sum of its reports %g", i, r.active, r.reported)
		}
		sum += r.active
	}
	// Disjointness: session ledgers partition the server ledger.
	total := srv.Totals()
	if total.Queries != 3*clients {
		t.Errorf("server ledger counted %d queries, want %d", total.Queries, 3*clients)
	}
	if rel := math.Abs(sum-total.EActive) / total.EActive; rel > 1e-9 {
		t.Errorf("session ledgers (%g J) do not partition server total (%g J): rel err %g",
			sum, total.EActive, rel)
	}
	// The Eq. 1 split partitions the same way: every component of the server
	// ledger is the sum of what the responses reported.
	for c := range total.Joules {
		reported := 0.0
		for _, r := range results {
			reported += r.joules[c]
		}
		if math.Abs(reported-total.Joules[c]) > 1e-9*total.EActive {
			t.Errorf("%v: responses reported %g J, server ledger holds %g J", core.Component(c), reported, total.Joules[c])
		}
	}
	// The paper puts L1D load/store at 39–67 % of a row engine's Active
	// energy. These statements run batch plans, which move far less through
	// L1D (19.6 %: E_L1D 13.6 %, E_Reg2L1D 6.0 %), so the floor sits under
	// them — and above either component alone, so a ledger that lost one of
	// the two still fails.
	if total.L1DShare() <= 0.15 {
		t.Errorf("server-wide L1D share %.1f%% implausibly low for query workloads", total.L1DShare()*100)
	}
}

// TestServerEnergyMatchesProfiler checks the acceptance bound: a warm
// server-side per-query breakdown agrees with single-process core.Profiler
// output for the same statement within ±5%.
func TestServerEnergyMatchesProfiler(t *testing.T) {
	_, addr := startServer(t)

	// Single-process reference measurement: same machine profile, own
	// calibration, warm engine (ProfileQuery-style warm-then-measure).
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	meter := rapl.NewMeter(m, 42, rapl.DefaultNoise)
	runner := mubench.NewRunner(m, meter)
	runner.Scale = 0.1
	cal, err := core.Calibrate(runner)
	if err != nil {
		t.Fatal(err)
	}
	prof := core.NewProfiler(m, meter, cal)
	e := engine.New(engine.SQLite, m, engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)

	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for _, id := range []int{1, 6} {
		q, err := tpch.SQLByID(id)
		if err != nil {
			t.Fatal(err)
		}
		// Warm both sides, then measure.
		if _, _, err := plan.Run(e, q.Text); err != nil {
			t.Fatal(err)
		}
		var runErr error
		want := prof.Profile("q", func() { _, _, runErr = plan.Run(e, q.Text) })
		if runErr != nil {
			t.Fatal(runErr)
		}

		shorthand := fmt.Sprintf(`\q%d`, id)
		if _, err := conn.Query(shorthand); err != nil { // warm the server side
			t.Fatal(err)
		}
		res, err := conn.Query(shorthand)
		if err != nil {
			t.Fatal(err)
		}

		rel := math.Abs(res.Energy.EActive-want.EActive) / want.EActive
		if rel > 0.05 {
			t.Errorf("Q%d: server EActive %g J vs profiler %g J: rel err %.2f%% > 5%%",
				id, res.Energy.EActive, want.EActive, rel*100)
		}
		// The component decomposition must agree too, not just the total.
		for c := core.CompL1D; c < core.NumComponents; c++ {
			serverShare := res.Energy.Joules[c] / res.Energy.EActive
			wantShare := want.Share(c)
			if math.Abs(serverShare-wantShare) > 0.05 {
				t.Errorf("Q%d %v: server share %.1f%% vs profiler %.1f%% differs by > 5 points",
					id, c, serverShare*100, wantShare*100)
			}
		}
	}
}

// TestStatementErrorKeepsSession checks error frames: a bad statement
// answers with Error but leaves the session usable.
func TestStatementErrorKeepsSession(t *testing.T) {
	_, addr := startServer(t)
	conn, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Query("SELECT nope FROM nowhere"); err == nil {
		t.Fatal("expected statement error")
	} else if _, ok := err.(*client.QueryError); !ok {
		t.Fatalf("expected QueryError, got %T: %v", err, err)
	}
	if _, err := conn.Query(`\q99`); err == nil {
		t.Fatal("expected error for out-of-range TPC-H id")
	}
	res, err := conn.Query(`\q6`)
	if err != nil {
		t.Fatalf("session unusable after statement error: %v", err)
	}
	if res.Energy.SessionQueries != 1 {
		t.Errorf("failed statements must not enter the ledger: got %d queries", res.Energy.SessionQueries)
	}
}

// TestHandshakeRejects checks negotiation failures close cleanly.
func TestHandshakeRejects(t *testing.T) {
	_, addr := startServer(t)
	if _, err := client.Dial(addr, client.Options{Engine: "oracle"}); err == nil {
		t.Fatal("expected handshake rejection for unknown engine")
	}
	if _, err := client.Dial(addr, client.Options{Class: "9TB"}); err == nil {
		t.Fatal("expected handshake rejection for unknown class")
	}
}

// TestLedgerPartitionParallel checks the partition invariant under real
// parallelism: 16 concurrent sessions spread over 4 workers, each running
// statements on its own simulated machine, and still (a) every session
// ledger equals the sum of that session's per-query reports and (b) the
// session ledgers sum to the server total — no energy is lost or
// double-counted when statements retire concurrently.
func TestLedgerPartitionParallel(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 4})
	if got := srv.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want 4", got)
	}

	const clients = 16
	const perClient = 3
	actives := make([]float64, clients)
	reported := make([]float64, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", i, err)
				return
			}
			defer conn.Close()
			for q := 0; q < perClient; q++ {
				res, err := conn.Query(`\q6`)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				reported[i] += res.Energy.EActive
				actives[i] = res.Energy.SessionActive
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	sum := 0.0
	for i := range actives {
		if math.Abs(actives[i]-reported[i]) > 1e-12*math.Max(actives[i], 1) {
			t.Errorf("session %d: ledger %g != sum of its reports %g", i, actives[i], reported[i])
		}
		sum += actives[i]
	}
	total := srv.Totals()
	if total.Queries != clients*perClient {
		t.Errorf("server ledger counted %d queries, want %d", total.Queries, clients*perClient)
	}
	if rel := math.Abs(sum-total.EActive) / total.EActive; rel > 1e-9 {
		t.Errorf("session ledgers (%g J) do not partition server total (%g J): rel err %g",
			sum, total.EActive, rel)
	}
}

// TestStmtTimeout checks the runaway-statement guard: with a tiny statement
// timeout the query is canceled cooperatively, the client gets a statement
// error (not a dropped connection), the session stays usable, and no
// statement is counted as retired (the energy a canceled statement did
// spend still lands in the ledgers; see
// TestFailedStatementEnergyConserved).
func TestStmtTimeout(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1, StmtTimeout: time.Nanosecond})
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	_, err = conn.Query(`\q1`)
	if err == nil {
		t.Fatal("expected statement timeout")
	}
	qe, ok := err.(*client.QueryError)
	if !ok {
		t.Fatalf("expected QueryError (session kept open), got %T: %v", err, err)
	}
	if !strings.Contains(qe.Error(), "statement timeout") {
		t.Fatalf("error does not mention the timeout: %v", qe)
	}
	// The worker is not wedged and the session is still serving.
	if _, err := conn.Query(`\q6`); err == nil {
		t.Fatal("expected second statement to time out too")
	} else if _, ok := err.(*client.QueryError); !ok {
		t.Fatalf("session wedged after timeout: %T: %v", err, err)
	}
	if got := srv.Totals().Queries; got != 0 {
		t.Errorf("timed-out statements entered the ledger: %d queries", got)
	}
}

// TestConnDeadlines checks the stalled-client guard: with a read deadline
// configured, a client that goes quiet is disconnected instead of pinning
// its session forever, while a prompt client is unaffected.
func TestConnDeadlines(t *testing.T) {
	_, addr := startServerCfg(t, server.Config{
		Workers:      1,
		ReadTimeout:  300 * time.Millisecond,
		WriteTimeout: 5 * time.Second,
	})
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query(`\q6`); err != nil {
		t.Fatalf("prompt query under read deadline failed: %v", err)
	}
	time.Sleep(time.Second) // stall past the deadline
	if _, err := conn.Query(`\q6`); err == nil {
		t.Fatal("expected transport error after stalling past the read deadline")
	} else if _, ok := err.(*client.QueryError); ok {
		t.Fatalf("expected a dropped connection, got statement error %v", err)
	}
}

// TestEngineSharing checks two sessions negotiating the same parameters
// share one table store (second handshake must not reload TPC-H) while
// different parameters get distinct stores — whichever workers the sessions
// land on.
func TestEngineSharing(t *testing.T) {
	srv, addr := startServer(t)
	a, err := client.Dial(addr, client.Options{Engine: "sqlite"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Query(`\q6`); err != nil {
		t.Fatal(err)
	}

	b, err := client.Dial(addr, client.Options{Engine: "sqlite"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Query(`\q6`); err != nil {
		t.Fatal(err)
	}
	if got := srv.Engines(); got != 1 {
		t.Errorf("identical negotiations provisioned %d engines, want 1 shared", got)
	}

	c, err := client.Dial(addr, client.Options{Engine: "postgresql"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := srv.Engines(); got != 2 {
		t.Errorf("distinct negotiations provisioned %d engines, want 2", got)
	}
	if got := srv.Totals().Queries; got != 2 {
		t.Errorf("server ledger: %d queries, want 2", got)
	}
}
