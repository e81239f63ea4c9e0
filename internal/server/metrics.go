package server

import (
	"net/http"
	"strconv"

	"energydb/internal/core"
	"energydb/internal/db/engine"
	"energydb/internal/db/stmt"
	"energydb/internal/obs"
)

// slowLogRing and slowLogTopN size the statement log: the last slowLogRing
// retirements plus the top slowLogTopN statements by wall time and by
// E_active. Memory is fixed regardless of load.
const (
	slowLogRing = 64
	slowLogTopN = 10
)

// metrics is energyd's observability surface: one obs.Registry exposed both
// as Prometheus text (/metrics) and inside STATS snapshots, plus the
// slow/hot query log. Hot-path handles are resolved once here; only the
// per-class error counters go through lazy registry lookup.
//
// Every per-statement observation happens inside the statement's job, holding
// the worker's lane (session.retire), so the counters are exactly as drained
// as the ledgers: after Server.Close nothing is still in flight. The energy
// series are no tally of their own: they read the server ledger at scrape
// time.
type metrics struct {
	reg  *obs.Registry
	qlog *obs.QueryLog

	connections *obs.Counter
	inFlight    *obs.Gauge
	stmtOK      *obs.Counter
	stmtErr     *obs.Counter

	wallHist   *obs.Histogram
	simHist    *obs.Histogram
	joulesHist *obs.Histogram
	rowsHist   *obs.Histogram
	predHist   *obs.Histogram
}

// newMetrics registers energyd's metric families against a fresh registry
// and hands each worker its P-state gauge/transition counter and the shared
// lane-wait histogram. The GaugeFunc closures read server state at scrape
// time; none of them acquires a lock that could be held while touching the
// registry, so scrapes cannot deadlock against the serving path.
func newMetrics(s *Server) *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r, qlog: obs.NewQueryLog(slowLogRing, slowLogTopN)}

	m.connections = r.Counter("energyd_connections_total", "TCP connections accepted.")
	r.GaugeFunc("energyd_sessions_active", "Sessions currently registered (including mid-handshake).", func() float64 {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		return float64(n)
	})
	m.inFlight = r.Gauge("energyd_statements_in_flight", "Statements currently being served.")
	m.stmtOK = r.Counter("energyd_statements_total", "Statements served, by outcome.", "status", "ok")
	m.stmtErr = r.Counter("energyd_statements_total", "Statements served, by outcome.", "status", "error")

	m.wallHist = r.Histogram("energyd_statement_wall_seconds",
		"Host wall-clock time per statement on its worker.", obs.ExpBuckets(1e-6, 10, 9))
	m.simHist = r.Histogram("energyd_statement_seconds",
		"Simulated machine time per statement.", obs.ExpBuckets(1e-9, 10, 11))
	m.joulesHist = r.Histogram("energyd_statement_joules",
		"Per-statement Active energy E_active (J).", obs.ExpBuckets(1e-9, 10, 12))
	m.rowsHist = r.Histogram("energyd_statement_rows",
		"Result rows per statement.", obs.ExpBuckets(1, 10, 7))
	m.predHist = r.Histogram("energyd_prediction_error_ratio",
		"Planner-predicted over measured E_active per planned statement.",
		[]float64{0.25, 0.354, 0.5, 0.707, 1, 1.41, 2, 2.83, 4}) // √2 steps

	// Derived gauges, read at scrape time. The energy series read the server
	// ledger and are gauges, not counters: a short statement's measured
	// E_active can be negative, so the signed running sum can go down, which
	// a Prometheus counter may not.
	for _, g := range []struct {
		name, help string
		read       func() float64
	}{
		{"energyd_active_joules_total", "Cumulative Active energy attributed to statements (J).",
			func() float64 { return s.Totals().EActive }},
		{"energyd_busy_joules_total", "Cumulative Busy-CPU energy over statements (J).",
			func() float64 { return s.Totals().EBusy }},
		{"energyd_background_joules_total", "Cumulative background energy over statements (J).",
			func() float64 { return s.Totals().EBackground }},
		{"energyd_sim_seconds_total", "Cumulative simulated execution time (s).",
			func() float64 { return s.Totals().Seconds }},
		{"energyd_l1d_share", "Live (E_L1D+E_Reg2L1D)/E_active over all retired statements.",
			func() float64 { return s.Totals().L1DShare() }},
		{"energyd_engines", "Distinct (profile, setting, class) stores provisioned.",
			func() float64 { return float64(s.Engines()) }},
		{"energyd_txns_active", "Explicit transactions currently open across all stores.",
			func() float64 { return float64(s.TxnStats().Active) }},
		{"energyd_txns_started", "Transactions begun since server start, all stores.",
			func() float64 { return float64(s.TxnStats().Started) }},
		{"energyd_txns_committed", "Transactions committed since server start, all stores.",
			func() float64 { return float64(s.TxnStats().Committed) }},
		{"energyd_txns_aborted", "Transactions aborted since server start, all stores.",
			func() float64 { return float64(s.TxnStats().Aborted) }},
		{"energyd_oldest_snapshot_lag", "Commits between the oldest registered snapshot and the horizon (worst store).",
			func() float64 { return float64(s.StoreStats().OldestSnapshotLag) }},
		{"energyd_versions_pruned_total", "Row versions unlinked from their chains by later updates.",
			func() float64 { return float64(s.StoreStats().VersionsPruned) }},
		{"energyd_dead_rows_pending", "Deleted or aborted rows queued until no snapshot can see them.",
			func() float64 { return float64(s.StoreStats().DeadRowsPending) }},
		{"energyd_dead_rows_reaped_total", "Dead rows whose slot and index entries a later write released.",
			func() float64 { return float64(s.StoreStats().DeadRowsReaped) }},
		{"energyd_wal_retained_records", "Log records held since the last checkpoint, buffered ones included.",
			func() float64 { return float64(s.StoreStats().WALRetained) }},
		{"energyd_wal_checkpoints_total", "Checkpoints taken: dirty pages written back and the log recycled.",
			func() float64 { return float64(s.StoreStats().WALCheckpoints) }},
	} {
		r.GaugeFunc(g.name, g.help, g.read)
	}
	for _, c := range core.Components() {
		r.GaugeFunc("energyd_energy_joules_total", "Cumulative Eq. 1 component energy (J).",
			func() float64 { return s.Totals().Joules[c] }, "component", c.String())
	}
	const scansHelp = "Batch (vector) heap scans started, by the direction they walked: a heap longer than L3 is walked back to front every other time."
	r.GaugeFunc("energyd_heap_scans_total", scansHelp,
		func() float64 { return float64(s.StoreStats().HeapScansForward) }, "direction", "forward")
	r.GaugeFunc("energyd_heap_scans_total", scansHelp,
		func() float64 { return float64(s.StoreStats().HeapScansReverse) }, "direction", "reverse")
	r.Gauge("energyd_workers", "Execution workers (simulated machines).").Set(float64(len(s.workers)))
	r.GaugeFunc("energyd_slowlog_slowest_seconds", "Worst statement wall time on the slow board.", m.qlog.SlowestWall)
	r.GaugeFunc("energyd_slowlog_hottest_joules", "Worst statement E_active on the hot board.", m.qlog.HottestJoules)

	laneWait := r.Histogram("energyd_lane_wait_seconds",
		"Host wall-clock time a job waited for its worker's lane.", obs.ExpBuckets(1e-6, 10, 9))
	for _, w := range s.workers {
		w.mLaneWait = laneWait
		id := strconv.Itoa(w.id)
		w.mPState = r.Gauge("energyd_worker_pstate", "Current P-state of the worker's machine.", "worker", id)
		w.mPState.Set(float64(w.m.PState()))
		w.mTransitions = r.Counter("energyd_pstate_transitions_total",
			"P-state changes made by the worker's stall-aware governor.", "worker", id)
	}
	return m
}

// watchTables registers the per-table ANALYZE counter for every table of a
// store that has just been provisioned. Stores share table names; the value
// sums them, so registering a name again changes nothing.
func (m *metrics) watchTables(s *Server, sh *engine.Shared) {
	for table := range sh.Stats().Analyzes {
		m.reg.GaugeFunc("energyd_analyze_total", "ANALYZE passes the optimizer's statistics cache has cost, by table.",
			func() float64 { return float64(s.StoreStats().Analyzes[table]) }, "table", table)
	}
}

// observeStatement books one successfully retired statement; its energy is
// in the ledgers, which the energy series read. A planned statement whose
// prediction and measurement are both positive also books its
// predicted-over-measured ratio.
func (m *metrics) observeStatement(r stmt.Record) {
	m.stmtOK.Inc()
	m.wallHist.Observe(r.Wall)
	m.simHist.Observe(r.B.Seconds)
	m.joulesHist.Observe(r.B.EActive)
	m.rowsHist.Observe(float64(r.Rows))
	if r.Pred > 0 && r.B.EActive > 0 {
		m.predHist.Observe(r.Pred / r.B.EActive)
	}
}

// statementError books a failed statement under its error class
// (parse | plan | exec | timeout).
func (m *metrics) statementError(class string) {
	m.stmtErr.Inc()
	m.errorClass(class)
}

// errorClass counts a failure that is not a served statement (protocol and
// handshake errors use class "protocol").
func (m *metrics) errorClass(class string) {
	m.reg.Counter("energyd_errors_total", "Failures by class.", "class", class).Inc()
}

// ObsHandler returns the HTTP surface energyd mounts on -metrics-addr:
// /metrics in Prometheus text format and a trivial /healthz.
func (s *Server) ObsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(s.obs.reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// Metrics exposes the registry (tests scrape it directly).
func (s *Server) Metrics() *obs.Registry { return s.obs.reg }

// QueryLog exposes the slow/hot statement log.
func (s *Server) QueryLog() *obs.QueryLog { return s.obs.qlog }
