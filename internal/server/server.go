// Package server implements energyd: a concurrent SQL-over-TCP server with
// per-session energy accounting. It multiplexes many client sessions over
// shared simulated database stores and attributes every statement's
// Active-energy breakdown (the paper's Eq. 1 decomposition, §2) to the
// session that issued it, making energy a first-class per-request metric —
// the serving-system counterpart of the paper's one-shot profiling.
//
// # Concurrency and locking model
//
// A simulated machine (cpusim.Machine, its memsim.Hierarchy and the
// rapl.Meter attached to it) is NOT goroutine-safe: every load, store and
// instruction mutates PMU counters, and energy reads fold counter deltas
// into machine time (Machine.Sync). The server therefore gives every worker
// a machine of its own and keeps the single-owner discipline per worker:
//
//   - The server runs N workers (Config.Workers, default GOMAXPROCS). Each
//     worker owns a private machine — a cpusim.Machine.NewLike clone of the
//     calibrated primary — plus its own meter, profiler and engine views,
//     and a lane: a channel with one slot. Engine attachment, statement
//     execution, and the counter/energy snapshot-delta pair around each
//     statement all run as jobs holding that worker's lane, so machine
//     state needs no other lock and attribution deltas are exact even with
//     statements running concurrently on other workers.
//   - Table data is shared, not cloned: one engine.Shared store per
//     negotiated (profile, setting, class), loaded once on the primary
//     machine, with per-worker engine views bound to it. Statements run
//     under MVCC snapshots — each job binds the session's open
//     transaction (or a fresh read snapshot) before touching tables, so
//     readers never block writers and writers never block readers; only
//     DDL takes the store's short catalog lock (see the engine package
//     doc).
//   - Sessions are assigned to a worker round-robin at handshake and stay
//     there (sticky), so one session's statements retain protocol order.
//     A session holds or waits for its worker's slot until its job has run
//     (see worker.go), so it never has a second job waiting, and the
//     runtime serves goroutines blocked on the full channel in arrival
//     order, handing a released slot to the first of them: a
//     statement-streaming session cannot starve its neighbours.
//   - Connection goroutines (one per session) parse frames, run their own
//     jobs holding the lane, and write responses; a job never changes
//     goroutine. Taking and releasing the slot orders one holder's
//     accesses to the machine before the next holder's.
//   - The only structures shared between goroutines — session/store
//     registries and the energy Ledgers — carry their own mutexes. Each
//     statement's breakdown lands in exactly one session ledger and in
//     the server ledger, so the session ledgers partition the server
//     total exactly. The registry's energy series and STATS read that
//     server ledger; nothing else tallies joules.
//
// Counter snapshots (memsim.Hierarchy.Counters) return value
// copies and are race-free by construction once the per-worker single-owner
// rule holds; rapl.Meter additionally guards its measurement-noise stream
// with a mutex so sessions opened off the lane cannot corrupt it.
package server

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/txn"
	"energydb/internal/rapl"
	"energydb/internal/server/wire"
	"energydb/internal/tpch"
)

// Banner identifies the server in HelloAck frames.
const Banner = "energyd/1 (micro-analysis energy accounting, EDBT 2020 reproduction)"

// Config configures a server.
type Config struct {
	// Seed drives the deterministic measurement-noise streams (default 42;
	// each worker's meter derives its own seed from it).
	Seed int64
	// Noise is the per-session relative measurement error (default
	// rapl.DefaultNoise; negative disables noise).
	Noise float64
	// Scale rescales calibration micro-benchmark pass counts (default
	// 0.1: fast startup, slightly less accurate ΔE_m).
	Scale float64
	// Workers is the number of execution workers, each with a private
	// simulated machine (default GOMAXPROCS). Workers: 1 reproduces the
	// old single-worker server exactly.
	Workers int
	// StmtTimeout cancels statements that run longer than this on the
	// simulated machine's wall clock (0 = no limit). A timed-out
	// statement returns an error; the session stays open.
	StmtTimeout time.Duration
	// ReadTimeout bounds the wait for each client frame (0 = no limit).
	// A stalled or vanished client is disconnected instead of pinning its
	// session forever.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write (0 = no limit).
	WriteTimeout time.Duration
	// Governor attaches a stall-aware DVFS governor (cpusim, §5 policy) to
	// every worker machine, ticked once per retired statement. Off by
	// default: with it on, memory-bound statements run at a lowered
	// P-state, so measured energies diverge from fixed-frequency
	// single-process profiling.
	Governor bool
	// Logf, when set, receives one line per session event.
	Logf func(format string, args ...any)
}

// Server is one energyd instance: a calibrated measurement stack, workers
// on cloned machines, and shared table stores with per-worker views.
type Server struct {
	cfg     Config
	m       *cpusim.Machine // calibration primary; also runs store loads
	cal     *core.Calibration
	workers []*worker
	obs     *metrics
	// ledger books every retired record once: Totals reads it, and so do
	// the registry's energy series.
	ledger Ledger

	// loadMu serializes store builds on the primary machine (TPC-H loads
	// drive s.m, which tolerates only one goroutine at a time).
	loadMu sync.Mutex

	mu       sync.Mutex
	listener net.Listener
	sessions map[uint64]*session
	stores   map[engineKey]*storeEntry
	closed   bool
	// retired accumulates the ledgers of departed sessions, so the session
	// ledgers keep partitioning Server.Totals exactly across disconnects
	// (see SessionTotals).
	retired LedgerTotals

	nextSID atomic.Uint64
	nextW   atomic.Uint64 // sessions assigned so far (see assign)
}

type engineKey struct {
	kind    engine.Kind
	setting engine.Setting
	class   tpch.SizeClass
}

// storeEntry is one shared table store, built exactly once; ready closes
// when the load finishes so latecomers wait instead of double-loading.
type storeEntry struct {
	ready  chan struct{}
	shared *engine.Shared
}

// New builds the measurement stack, calibrates the energy model on the
// primary machine, and starts the workers. The server is ready to Serve.
func New(cfg Config) (*Server, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	switch {
	case cfg.Noise < 0:
		cfg.Noise = 0
	case cfg.Noise == 0:
		cfg.Noise = rapl.DefaultNoise
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	st, err := core.NewStack(cpusim.PStateMax, cfg.Seed, cfg.Noise, cfg.Scale, 0)
	if err != nil {
		return nil, fmt.Errorf("server: calibration failed: %w", err)
	}
	srv := &Server{
		cfg:      cfg,
		m:        st.M,
		cal:      st.Cal,
		workers:  newWorkers(cfg.Workers, st.M, st.Cal, cfg.Seed, cfg.Noise, cfg.Governor),
		sessions: make(map[uint64]*session),
		stores:   make(map[engineKey]*storeEntry),
	}
	srv.obs = newMetrics(srv)
	return srv, nil
}

// Calibration exposes the solved energy model (tests compare server-side
// breakdowns against single-process profiling). It is read-only after New
// and shared by every worker's profiler.
func (s *Server) Calibration() *core.Calibration { return s.cal }

// Workers returns the number of workers.
func (s *Server) Workers() int { return len(s.workers) }

// assign picks the next worker round-robin. Sessions keep the result for
// life, so a session's statements run in protocol order while different
// sessions run in parallel.
func (s *Server) assign() *worker {
	return s.workers[(s.nextW.Add(1)-1)%uint64(len(s.workers))]
}

// Totals returns the server-wide energy ledger snapshot: the signed sum of
// every retired record. The per-session ledgers partition the same sum.
func (s *Server) Totals() LedgerTotals { return s.ledger.Totals() }

// SessionTotals returns the session-side sum: every live session's ledger
// plus the retired accumulator of departed sessions. Once the workers are
// drained (after Close) this equals Totals exactly — each statement's
// breakdown lands in one session ledger and the server ledger within the
// same worker job, so neither side can be ahead of the other at rest. Both
// reads happen under s.mu, the same lock dropSession holds while it merges
// a departing session, so no ledger is ever counted twice or dropped.
func (s *Server) SessionTotals() LedgerTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.retired
	for _, sess := range s.sessions {
		out.Merge(sess.ledger.Totals())
	}
	return out
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts sessions on l until Close. It owns l and closes it on the
// way out.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.obs.connections.Inc()
		sess := &session{
			id:   s.nextSID.Add(1),
			srv:  s,
			conn: conn,
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.sessions[sess.id] = sess
		s.mu.Unlock()
		go sess.run()
	}
}

// Addr returns the listening address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Close stops accepting, disconnects every session and stops the workers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	var err error
	if l != nil {
		err = l.Close()
	}
	for _, sess := range sessions {
		sess.conn.Close()
	}
	for _, w := range s.workers {
		w.close()
	}
	return err
}

// dropSession retires a departing session: its ledger is folded into the
// retired accumulator in the same critical section that removes it from the
// registry, so SessionTotals observes each session exactly once. By the time
// run's defers reach here the connection is closed and no statement job of
// this session can still be waiting, so the ledger is final.
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	if _, ok := s.sessions[sess.id]; ok {
		delete(s.sessions, sess.id)
		s.retired.Merge(sess.ledger.Totals())
	}
	s.mu.Unlock()
}

// sharedStore returns the table store for a negotiated (kind, setting,
// class), building and loading it on first use. It runs on the calling
// (connection) goroutine so a long TPC-H load never blocks any worker;
// loads themselves are serialized on the primary machine by loadMu, and
// latecomers for the same key wait on the entry's ready channel.
func (s *Server) sharedStore(key engineKey) *engine.Shared {
	s.mu.Lock()
	ent, ok := s.stores[key]
	if ok {
		s.mu.Unlock()
		<-ent.ready
		return ent.shared
	}
	ent = &storeEntry{ready: make(chan struct{})}
	s.stores[key] = ent
	s.mu.Unlock()

	s.loadMu.Lock()
	e := engine.New(key.kind, s.m, key.setting)
	tpch.Setup(e, key.class)
	s.loadMu.Unlock()

	ent.shared = e.Shared()
	close(ent.ready)
	s.obs.watchTables(s, ent.shared)
	return ent.shared
}

// Engines returns the number of distinct (profile, setting, class) stores
// provisioned so far. Sessions negotiating identical parameters share one,
// whichever workers they land on.
func (s *Server) Engines() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stores)
}

// TxnStats aggregates the explicit-transaction counters over every
// provisioned store. Stores still loading are skipped — they cannot have
// transactions yet.
func (s *Server) TxnStats() txn.Stats {
	var out txn.Stats
	for _, sh := range s.readyStores() {
		st := sh.Txns.StatsSnapshot()
		out.Active += st.Active
		out.Started += st.Started
		out.Committed += st.Committed
		out.Aborted += st.Aborted
	}
	return out
}

// readyStores lists the provisioned stores that have finished loading.
func (s *Server) readyStores() []*engine.Shared {
	s.mu.Lock()
	ents := make([]*storeEntry, 0, len(s.stores))
	for _, ent := range s.stores {
		ents = append(ents, ent)
	}
	s.mu.Unlock()
	out := make([]*engine.Shared, 0, len(ents))
	for _, ent := range ents {
		select {
		case <-ent.ready:
			out = append(out, ent.shared)
		default:
		}
	}
	return out
}

// StoreStats aggregates the stores' reclamation state (engine.StoreStats):
// counters sum, and the snapshot lag is the worst of any store.
func (s *Server) StoreStats() engine.StoreStats {
	out := engine.StoreStats{Analyzes: make(map[string]uint64)}
	for _, sh := range s.readyStores() {
		st := sh.Stats()
		out.OldestSnapshotLag = max(out.OldestSnapshotLag, st.OldestSnapshotLag)
		out.VersionsPruned += st.VersionsPruned
		out.DeadRowsReaped += st.DeadRowsReaped
		out.DeadRowsPending += st.DeadRowsPending
		out.WALRetained += st.WALRetained
		out.WALCheckpoints += st.WALCheckpoints
		for table, n := range st.Analyzes {
			out.Analyzes[table] += n
		}
	}
	return out
}

// Stats assembles the observability snapshot the STATS command returns: the
// live metrics registry (energy totals included) and the slow/hot query
// boards.
func (s *Server) Stats() *wire.StatsSnapshot {
	s.mu.Lock()
	engines := make([]string, 0, len(s.stores))
	for k := range s.stores {
		engines = append(engines, fmt.Sprintf("%s/%s/%s", k.kind, k.setting, k.class))
	}
	s.mu.Unlock()
	sort.Strings(engines)
	return &wire.StatsSnapshot{
		Banner:  Banner,
		Engines: engines,
		Metrics: s.obs.reg.Snapshot(),
		Slowest: s.obs.qlog.Slowest(),
		Hottest: s.obs.qlog.Hottest(),
	}
}
