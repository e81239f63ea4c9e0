package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"energydb/internal/core"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	dbplan "energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/obs"
	"energydb/internal/server/wire"
	"energydb/internal/tpch"
)

// session is one client connection: a negotiated engine view on its sticky
// worker, an energy ledger, and a frame loop. The connection goroutine owns
// conn and the buffered reader/writer exclusively; everything machine-side
// happens in jobs on the session's worker (see the package comment).
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn
	w    *bufio.Writer
	wk   *worker
	eng  *engine.Engine

	// tx is the session's open explicit transaction, nil in autocommit.
	// The connection goroutine blocks in submit while any job runs, so the
	// worker jobs that write it and the connection goroutine that checks it
	// never race.
	tx *txn.Txn

	ledger Ledger
}

// submit runs fn on the session's worker goroutine, serialized fairly
// against the worker's other sessions.
func (s *session) submit(fn func()) error {
	return s.wk.sched.submit(s.id, fn)
}

// bind establishes this statement's snapshot on the worker-shared engine:
// the open transaction's pinned snapshot, or a fresh read snapshot under
// autocommit. Engines are cached per worker and shared by its sessions, so
// every job must bind before touching tables. Must run on the worker
// goroutine.
func (s *session) bind() {
	if s.tx != nil {
		s.eng.Bind(s.tx)
	} else {
		s.eng.Unbind()
	}
}

// armRead applies the per-frame read deadline, if configured.
func (s *session) armRead() {
	if d := s.srv.cfg.ReadTimeout; d > 0 {
		s.conn.SetReadDeadline(time.Now().Add(d))
	}
}

func (s *session) run() {
	defer s.srv.dropSession(s)
	defer s.conn.Close()
	r := bufio.NewReader(s.conn)
	s.w = bufio.NewWriter(s.conn)

	if err := s.handshake(r); err != nil {
		s.srv.obs.errorClass("protocol")
		s.srv.cfg.Logf("session %d: handshake: %v", s.id, err)
		return
	}
	s.srv.cfg.Logf("session %d: connected from %s (worker %d)",
		s.id, s.conn.RemoteAddr(), s.wk.id)
	// A transaction left open by a dropped connection must not pin the
	// snapshot horizon (or hold first-updater write claims) forever.
	defer func() {
		if s.tx != nil {
			s.txnCtl(wire.TxnRollback)
		}
	}()

	for {
		s.armRead()
		f, err := wire.Read(r)
		if err != nil {
			s.srv.cfg.Logf("session %d: closed (%v)", s.id, err)
			return
		}
		switch f := f.(type) {
		case *wire.Quit:
			s.srv.cfg.Logf("session %d: quit after %d queries", s.id, s.ledger.Totals().Queries)
			return
		case *wire.Query:
			if err := s.serveQuery(f.Text); err != nil {
				s.srv.cfg.Logf("session %d: write: %v", s.id, err)
				return
			}
		case *wire.TxnCtl:
			id, active, _, terr := s.txnCtl(f.Op)
			if terr != nil {
				s.srv.obs.statementError("txn")
				if err := s.send(&wire.Error{Msg: terr.Error()}); err != nil {
					return
				}
				break
			}
			if err := s.send(&wire.TxnAck{TxnID: id, Active: active}); err != nil {
				s.srv.cfg.Logf("session %d: write: %v", s.id, err)
				return
			}
		case *wire.Stats:
			reply, rerr := s.srv.Stats().Reply()
			if rerr != nil {
				if err := s.send(&wire.Error{Msg: "stats: " + rerr.Error()}); err != nil {
					return
				}
				break
			}
			if err := s.send(reply); err != nil {
				s.srv.cfg.Logf("session %d: write: %v", s.id, err)
				return
			}
		default:
			s.srv.obs.errorClass("protocol")
			s.send(&wire.Error{Msg: fmt.Sprintf("unexpected %v frame", f.FrameType())})
			return
		}
	}
}

// handshake negotiates the session engine: it resolves (or waits for) the
// shared table store on the connection goroutine — so a first-session TPC-H
// load never stalls a worker — then attaches this session's worker view.
func (s *session) handshake(r *bufio.Reader) error {
	s.armRead()
	f, err := wire.Read(r)
	if err != nil {
		return err
	}
	hello, ok := f.(*wire.Hello)
	if !ok {
		s.send(&wire.Error{Msg: fmt.Sprintf("expected Hello, got %v", f.FrameType())})
		return fmt.Errorf("expected Hello, got %v", f.FrameType())
	}
	if hello.Version != wire.ProtocolVersion {
		s.send(&wire.Error{Msg: fmt.Sprintf("unsupported protocol version %d (want %d)", hello.Version, wire.ProtocolVersion)})
		return fmt.Errorf("unsupported protocol version %d", hello.Version)
	}
	kind, err := ParseKind(defaultStr(hello.Engine, "sqlite"))
	if err != nil {
		s.send(&wire.Error{Msg: err.Error()})
		return err
	}
	setting, err := ParseSetting(defaultStr(hello.Setting, "baseline"))
	if err != nil {
		s.send(&wire.Error{Msg: err.Error()})
		return err
	}
	class, err := ParseClass(defaultStr(hello.Class, "10MB"))
	if err != nil {
		s.send(&wire.Error{Msg: err.Error()})
		return err
	}
	key := engineKey{kind: kind, setting: setting, class: class}
	sh := s.srv.sharedStore(key)
	s.wk = s.srv.pool.assign()
	var eng *engine.Engine
	if err := s.submit(func() {
		eng = s.wk.engine(key, sh)
	}); err != nil {
		s.send(&wire.Error{Msg: err.Error()})
		return err
	}
	s.eng = eng
	return s.send(&wire.HelloAck{
		Banner:    Banner,
		Engine:    kind.String(),
		Setting:   setting.String(),
		Class:     class.String(),
		Tables:    uint32(eng.Tables()),
		SessionID: s.id,
	})
}

// serveQuery executes one statement on the session's worker and answers
// with ResultSet + EnergyReport (or Error). Statement failures — including
// statement timeouts — keep the session open; only transport failures
// propagate.
//
// Successful statements are fully retired (ledgers, metrics, query log,
// governor tick) inside the worker job by session.retire, before execute
// returns — so a concurrent Server.Close, which drains the workers, can
// never observe a statement that ran but is not yet accounted.
func (s *session) serveQuery(text string) error {
	s.srv.obs.inFlight.Add(1)
	defer s.srv.obs.inFlight.Add(-1)
	name, cols, rows, b, class, err := s.execute(text)
	if err != nil {
		s.srv.obs.statementError(class)
		return s.send(&wire.Error{Msg: err.Error()})
	}
	t := s.ledger.Totals()
	rep := &wire.EnergyReport{
		Name:        name,
		Rows:        uint64(len(rows)),
		EActive:     b.EActive,
		EBusy:       b.EBusy,
		EBackground: b.EBackground,
		Seconds:     b.Seconds,

		SessionQueries: t.Queries,
		SessionActive:  t.EActive,
		SessionSeconds: t.Seconds,
	}
	for i := range rep.Joules {
		rep.Joules[i] = b.Joules[i]
	}
	if err := s.send(&wire.ResultSet{Cols: cols, Rows: rows}); err != nil {
		// An oversized result set fails before any bytes hit the wire;
		// downgrade to a statement error and keep the session alive.
		if s.w.Buffered() == 0 {
			return s.send(&wire.Error{Msg: err.Error()})
		}
		return err
	}
	return s.send(rep)
}

// retire books one successfully executed statement: the ledger adds, the
// metric observations, the query-log entry and the optional governor tick.
// It MUST run on the worker goroutine as the tail of the statement's own
// job: pool.close() waits for the running job to finish, so after Close
// every executed statement is fully accounted — the ledger adds can no
// longer race shutdown on the connection goroutine (the old bug), and the
// session ledgers partition Server.Totals exactly at rest.
func (s *session) retire(name, text, planSummary string, rows uint64, wallSeconds float64, b core.Breakdown) {
	s.ledger.Add(b)
	s.wk.ledger.Add(b)
	s.srv.obs.observeStatement(b, rows, wallSeconds)
	s.srv.obs.qlog.Record(obs.QueryLogEntry{
		Session:     s.id,
		Name:        name,
		Text:        text,
		Plan:        planSummary,
		Rows:        rows,
		WallSeconds: wallSeconds,
		SimSeconds:  b.Seconds,
		EActive:     b.EActive,
	})
	s.wk.tickGovernor()
}

// retireEnergy books a failed statement's measured energy without counting
// it as a retired query: the joules were really spent, so they must reach
// the session and worker ledgers (which partition Server.Totals exactly)
// even though the statement errored and never counts toward Queries. Like
// retire, it MUST run on the worker goroutine as the tail of the
// statement's own job.
func (s *session) retireEnergy(b core.Breakdown) {
	if b.EActive == 0 && b.Seconds == 0 {
		return
	}
	s.ledger.AddEnergy(b)
	s.wk.ledger.AddEnergy(b)
}

// txnCtl runs one transaction-control operation as a profiled job on the
// session's worker. Commit fsyncs the WAL and rollback walks the undo chain,
// so both charge energy; retiring the operation as a statement keeps the
// session ledgers partitioning the server total exactly.
func (s *session) txnCtl(op wire.TxnOp) (id uint64, active bool, b core.Breakdown, err error) {
	var ctlErr error
	if submitErr := s.submit(func() {
		name := strings.ToLower(op.String())
		start := time.Now()
		switch op {
		case wire.TxnBegin:
			if s.tx != nil {
				ctlErr = fmt.Errorf("transaction %d already open", s.tx.ID())
				return
			}
			b = s.wk.prof.Profile(name, func() {
				s.tx = s.eng.Begin()
			})
		case wire.TxnCommit, wire.TxnRollback:
			if s.tx == nil {
				ctlErr = errors.New("no transaction open")
				return
			}
			tx := s.tx
			s.tx = nil
			s.eng.Bind(tx)
			b = s.wk.prof.Profile(name, func() {
				if op == wire.TxnCommit {
					ctlErr = s.eng.Commit(tx)
				} else {
					ctlErr = s.eng.Rollback(tx)
				}
			})
		default:
			ctlErr = fmt.Errorf("unknown txn op %v", op)
			return
		}
		// Retire even when commit/rollback errored: the WAL fsync or undo
		// walk already charged the meter, and unretired energy would break
		// the ledger partition.
		s.retire(name, name, "", 0, time.Since(start).Seconds(), b)
		if s.tx != nil {
			id, active = s.tx.ID(), true
		}
	}); submitErr != nil {
		return 0, false, b, submitErr
	}
	return id, active, b, ctlErr
}

// txnStmt serves SQL BEGIN / COMMIT / ROLLBACK arriving as Query frames,
// reporting the new transaction state as a one-row result set.
func (s *session) txnStmt(op wire.TxnOp) (name string, cols []string, rows []value.Row, b core.Breakdown, class string, err error) {
	name = strings.ToLower(op.String())
	id, active, b, err := s.txnCtl(op)
	if err != nil {
		return "", nil, nil, b, "txn", err
	}
	status := op.String()
	if active {
		status = fmt.Sprintf("%s (txn %d)", op.String(), id)
	}
	return name, []string{"status"}, []value.Row{{value.Str(status)}}, b, "", nil
}

// executeDML runs INSERT / UPDATE / DELETE on the session's worker. Under an
// open explicit transaction the writes join it; otherwise the statement
// autocommits. A failed statement may have left writes in the transaction
// (half an UPDATE before a write-write conflict), so any error under an
// explicit transaction rolls the whole transaction back — committing a torn
// statement is never an option under snapshot isolation.
func (s *session) executeDML(stmt sql.Statement, text string) (name string, cols []string, rows []value.Row, b core.Breakdown, class string, err error) {
	switch stmt.(type) {
	case *sql.InsertStmt:
		name = "insert"
	case *sql.UpdateStmt:
		name = "update"
	default:
		name = "delete"
	}
	var affected int
	var runErr error
	rolledBack := false
	if submitErr := s.submit(func() {
		start := time.Now()
		s.bind()
		cancel := new(atomic.Bool)
		s.eng.Ctx.Cancel = cancel
		var watchdog *time.Timer
		if d := s.srv.cfg.StmtTimeout; d > 0 {
			watchdog = time.AfterFunc(d, func() { cancel.Store(true) })
		}
		b = s.wk.prof.Profile(name, func() {
			affected, runErr = dbplan.ExecWrite(s.eng, s.tx, stmt)
		})
		if watchdog != nil {
			watchdog.Stop()
		}
		s.eng.Ctx.Cancel = nil
		if runErr != nil && s.tx != nil {
			tx := s.tx
			s.tx = nil
			s.eng.Bind(tx)
			var rbErr error
			rb := s.wk.prof.Profile("rollback", func() { rbErr = s.eng.Rollback(tx) })
			if rbErr != nil {
				runErr = errors.Join(runErr, rbErr)
			}
			s.retire("rollback", "rollback", "", 0, time.Since(start).Seconds(), rb)
			rolledBack = true
		}
		if runErr == nil {
			s.retire(name, text, "", uint64(affected), time.Since(start).Seconds(), b)
		} else {
			s.retireEnergy(b)
		}
	}); submitErr != nil {
		return "", nil, nil, b, "exec", submitErr
	}
	if errors.Is(runErr, exec.ErrCanceled) {
		return "", nil, nil, b, "timeout", fmt.Errorf("statement timeout: canceled after %v", s.srv.cfg.StmtTimeout)
	}
	if runErr != nil {
		if rolledBack {
			runErr = fmt.Errorf("%w %s", runErr, wire.TxnRolledBackSuffix)
		}
		return "", nil, nil, b, "exec", runErr
	}
	return name, []string{"rows_affected"}, []value.Row{{value.Int(int64(affected))}}, b, "", nil
}

// execute runs the statement as jobs on the session's worker, returning the
// collected rows and the Eq. 1 breakdown of its measured Active energy.
// Plan building and execution each bind the session's snapshot first — the
// open transaction's pinned one, or a fresh read snapshot — so concurrent
// writers on other workers publish versions this statement simply does not
// see, instead of blocking it. class labels failures for the error counters
// (parse | plan | exec | timeout | txn); it is meaningless when err is nil.
func (s *session) execute(text string) (name string, cols []string, rows []value.Row, b core.Breakdown, class string, err error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return "", nil, nil, b, "parse", fmt.Errorf("empty statement")
	}
	var plan exec.Operator
	var buildErr error
	var planSummary string
	name = "query"
	query := text
	if strings.HasPrefix(text, `\q`) {
		// TPC-H shorthand: \qN is the SQL text of query N (tpch.SQLByID) and
		// takes the same parse → optimize route as any other statement.
		var id int
		if _, scanErr := fmt.Sscanf(text, `\q%d`, &id); scanErr != nil {
			return "", nil, nil, b, "parse", fmt.Errorf(`bad TPC-H shorthand %q: use \q<N> with N in 1..22`, text)
		}
		q, qErr := tpch.SQLByID(id)
		if qErr != nil {
			return "", nil, nil, b, "parse", qErr
		}
		name = fmt.Sprintf("tpch-q%d", id)
		query = q.Text
	}
	stmt, parseErr := sql.ParseStatement(query)
	if parseErr != nil {
		return "", nil, nil, b, "parse", parseErr
	}
	var sel *sql.SelectStmt
	switch st := stmt.(type) {
	case *sql.ExplainStmt:
		return s.explain(st, text)
	case *sql.BeginStmt:
		return s.txnStmt(wire.TxnBegin)
	case *sql.CommitStmt:
		return s.txnStmt(wire.TxnCommit)
	case *sql.RollbackStmt:
		return s.txnStmt(wire.TxnRollback)
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return s.executeDML(st, text)
	case *sql.SelectStmt:
		sel = st
	default:
		return "", nil, nil, b, "parse", fmt.Errorf("unsupported statement %T", stmt)
	}
	if submitErr := s.submit(func() {
		s.bind()
		var p *dbplan.Prepared
		if p, buildErr = dbplan.Prepare(s.eng, sel); buildErr == nil {
			planSummary = p.Summary()
			plan, buildErr = p.Build()
		}
	}); submitErr != nil {
		return "", nil, nil, b, "exec", submitErr
	}
	if buildErr != nil {
		return "", nil, nil, b, "plan", buildErr
	}
	cols = plan.Schema().Names()

	var runErr error
	if submitErr := s.submit(func() {
		start := time.Now()
		s.bind()
		// A fresh per-statement cancel flag: a watchdog that fires late
		// flips a flag no longer wired to anything, so it can never
		// poison a later statement.
		cancel := new(atomic.Bool)
		s.eng.Ctx.Cancel = cancel
		var watchdog *time.Timer
		if d := s.srv.cfg.StmtTimeout; d > 0 {
			watchdog = time.AfterFunc(d, func() { cancel.Store(true) })
		}
		// Snapshot → run → delta, all on this session's worker: the
		// profiler reads the PMU and RAPL counters immediately around the
		// statement, so the delta is exactly this statement's footprint.
		// Rows are collected (not rendered) inside the measured region,
		// matching the paper's display-disabled methodology.
		b = s.wk.prof.Profile(name, func() {
			rows, runErr = exec.Collect(plan)
		})
		if watchdog != nil {
			watchdog.Stop()
		}
		s.eng.Ctx.Cancel = nil
		if runErr == nil {
			s.retire(name, text, planSummary, uint64(len(rows)), time.Since(start).Seconds(), b)
		} else {
			s.retireEnergy(b)
		}
	}); submitErr != nil {
		return "", nil, nil, b, "exec", submitErr
	}
	if errors.Is(runErr, exec.ErrCanceled) {
		return "", nil, nil, b, "timeout", fmt.Errorf("statement timeout: canceled after %v", s.srv.cfg.StmtTimeout)
	}
	if runErr != nil {
		return "", nil, nil, b, "exec", runErr
	}
	return name, cols, rows, b, "", nil
}

// explain serves EXPLAIN and EXPLAIN ENERGY on the session's worker. Plain
// EXPLAIN plans the statement and renders the optimizer's predictions without
// executing it; EXPLAIN ENERGY additionally executes the plan with
// per-operator counter metering and reports the measured attribution. The
// EnergyReport carries the planning (EXPLAIN) or execution (EXPLAIN ENERGY)
// breakdown, so explained statements land in the session ledger like any
// other statement.
func (s *session) explain(ex *sql.ExplainStmt, text string) (name string, cols []string, rows []value.Row, b core.Breakdown, class string, err error) {
	name = "explain"
	if ex.Energy {
		name = "explain-energy"
	}
	var innerErr error
	planned := false // Prepare succeeded: later failures are execution errors
	if submitErr := s.submit(func() {
		start := time.Now()
		s.bind()
		if !ex.Energy {
			var summary string
			b = s.wk.prof.Profile(name, func() {
				var p *dbplan.Prepared
				if p, innerErr = dbplan.Prepare(s.eng, ex.Select); innerErr == nil {
					summary = p.Summary()
					rows, cols = p.Explain()
				}
			})
			if innerErr == nil {
				planned = true
				s.retire(name, text, summary, uint64(len(rows)), time.Since(start).Seconds(), b)
			} else {
				s.retireEnergy(b)
			}
			return
		}
		p, prepErr := dbplan.Prepare(s.eng, ex.Select)
		if prepErr != nil {
			innerErr = prepErr
			return
		}
		planned = true
		cancel := new(atomic.Bool)
		s.eng.Ctx.Cancel = cancel
		var watchdog *time.Timer
		if d := s.srv.cfg.StmtTimeout; d > 0 {
			watchdog = time.AfterFunc(d, func() { cancel.Store(true) })
		}
		rows, cols, b, innerErr = p.ExplainEnergy(s.wk.prof)
		if watchdog != nil {
			watchdog.Stop()
		}
		s.eng.Ctx.Cancel = nil
		if innerErr == nil {
			s.retire(name, text, p.Summary(), uint64(len(rows)), time.Since(start).Seconds(), b)
		} else {
			s.retireEnergy(b)
		}
	}); submitErr != nil {
		return "", nil, nil, b, "exec", submitErr
	}
	if errors.Is(innerErr, exec.ErrCanceled) {
		return "", nil, nil, b, "timeout", fmt.Errorf("statement timeout: canceled after %v", s.srv.cfg.StmtTimeout)
	}
	if innerErr != nil {
		class = "plan"
		if planned {
			class = "exec"
		}
		return "", nil, nil, b, class, innerErr
	}
	return name, cols, rows, b, "", nil
}

func (s *session) send(f wire.Frame) error {
	if d := s.srv.cfg.WriteTimeout; d > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := wire.Write(s.w, f); err != nil {
		return err
	}
	return s.w.Flush()
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
