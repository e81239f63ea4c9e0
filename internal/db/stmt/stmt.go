// Package stmt is the statement pipeline: text → snapshot → profiled run →
// breakdown, the paper's read-the-counters-before-and-after discipline
// written once for every statement kind. A Session owns an engine view, a
// profiler, the open explicit transaction and the statement timeout; energyd
// sessions run it inside a worker job and dbshell's local mode runs it
// inline, so both measure a statement the same way.
//
// Every profiled region yields exactly one Record, in the order the regions
// ran. A statement that succeeds yields one; a write that fails inside an
// explicit transaction yields two (the failed write, then the rollback of
// the whole transaction); a statement that fails before anything was
// measured yields none. The Session hands each record to its Retire sink
// before the call that measured it returns, so no caller can drop one: the
// joules in it were really spent. What the sink does with a record —
// ledgers, metrics, a printed breakdown — is the consumer's business.
package stmt

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"energydb/internal/core"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/server/wire"
	"energydb/internal/tpch"
)

// Error is a statement failure labelled with the stage that failed: parse |
// plan | exec | timeout | txn.
type Error struct {
	Class string
	Err   error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Record is one profiled region. OK records count as retired statements; a
// record that is not OK carries energy a failed statement spent, which must
// still reach the ledgers but is not a query.
type Record struct {
	Name string // query | tpch-qN | explain | explain-energy | insert | update | delete | begin | commit | rollback
	Text string // as the client sent it
	Plan string // one-line plan summary, where there is a plan
	Rows uint64 // result rows, or rows affected
	Wall float64
	B    core.Breakdown
	OK   bool
	// Pred is the plan's predicted E_active (plan.Prepared.PredictedEJ) for
	// SELECT, EXPLAIN ENERGY, UPDATE and DELETE; zero for everything else.
	Pred float64
}

// Result is a statement's answer: the result set and the breakdown of the
// region that produced it.
type Result struct {
	Name   string
	Cols   []string
	Rows   []value.Row
	Energy core.Breakdown
}

// Stmt is a parsed statement.
type Stmt struct {
	Name string // the name its record will carry
	Text string
	Note string // for \qN: how the SQL text departs from the TPC-H query, if it does
	AST  sql.Statement
}

// Parse turns client text into a statement. `\qN` stands for the SQL text of
// TPC-H query N and takes the same route as typing it.
func Parse(text string) (*Stmt, error) {
	st := &Stmt{Name: "query", Text: strings.TrimSpace(text)}
	query := st.Text
	switch {
	case query == "":
		return nil, &Error{"parse", errors.New("empty statement")}
	case strings.HasPrefix(query, `\q`):
		var id int
		if _, err := fmt.Sscanf(query, `\q%d`, &id); err != nil {
			return nil, &Error{"parse", fmt.Errorf(`bad TPC-H shorthand %q: use \q<N> with N in 1..22`, query)}
		}
		q, err := tpch.SQLByID(id)
		if err != nil {
			return nil, &Error{"parse", err}
		}
		st.Name, query, st.Note = fmt.Sprintf("tpch-q%d", id), q.Text, q.Note
	}
	var err error
	if st.AST, err = sql.ParseStatement(query); err != nil {
		return nil, &Error{"parse", err}
	}
	switch a := st.AST.(type) {
	case *sql.SelectStmt:
	case *sql.ExplainStmt:
		st.Name = "explain"
		if a.Energy {
			st.Name = "explain-energy"
		}
	case *sql.InsertStmt:
		st.Name = "insert"
	case *sql.UpdateStmt:
		st.Name = "update"
	case *sql.DeleteStmt:
		st.Name = "delete"
	case *sql.BeginStmt:
		st.Name = "begin"
	case *sql.CommitStmt:
		st.Name = "commit"
	case *sql.RollbackStmt:
		st.Name = "rollback"
	default:
		return nil, &Error{"parse", fmt.Errorf("unsupported statement %T", st.AST)}
	}
	return st, nil
}

// Session runs statements on one engine view. It is not goroutine-safe: the
// engine's machine tolerates one goroutine, so a server calls it only from
// the worker that owns the view.
type Session struct {
	Eng  *engine.Engine
	Prof *core.Profiler
	// Retire receives every record, on the calling goroutine, before Exec
	// or Txn returns. It is required: a nil sink panics at the first record.
	Retire func(Record)
	// Timeout cancels execution that runs longer (0 = no limit).
	Timeout time.Duration

	tx *txn.Txn // the open explicit transaction, nil in autocommit
}

// InTxn reports the open explicit transaction's ID, if there is one.
func (s *Session) InTxn() (uint64, bool) {
	if s.tx == nil {
		return 0, false
	}
	return s.tx.ID(), true
}

// Exec runs one statement under one snapshot — the open transaction's pinned
// one, or a fresh read snapshot — and retires the records of its profiled
// regions whether or not it fails.
//
// The region is execution only for SELECT and EXPLAIN ENERGY (rows are
// collected, not rendered: the paper's display-disabled runs), planning for
// plain EXPLAIN, and the write for DML. A write — EXPLAIN ENERGY of one
// included, which executes it — that fails under an explicit transaction may
// have left half a statement in it, so the whole transaction is rolled back,
// in a region of its own: committing a torn statement is never an option
// under snapshot isolation.
//
// The view's read snapshot stays registered with the transaction manager only
// while the statement runs: once Exec returns, an idle session holds no
// version back from the writers' reclamation.
func (s *Session) Exec(st *Stmt) (Result, error) {
	switch st.AST.(type) {
	case *sql.BeginStmt:
		return s.Txn(wire.TxnBegin)
	case *sql.CommitStmt:
		return s.Txn(wire.TxnCommit)
	case *sql.RollbackStmt:
		return s.Txn(wire.TxnRollback)
	}
	if s.tx != nil {
		s.Eng.Bind(s.tx)
	} else {
		s.Eng.Unbind()
	}
	defer s.Eng.EndRead()
	var (
		res   = Result{Name: st.Name}
		rec   = Record{Name: st.Name, Text: st.Text}
		class = "exec"
		start = time.Now()
		write bool
		err   error
	)
	switch a := st.AST.(type) {
	case *sql.SelectStmt:
		var p *plan.Prepared
		var op exec.Operator
		if p, err = plan.Prepare(s.Eng, a); err == nil {
			op, err = p.Build()
		}
		if err != nil {
			return Result{}, &Error{"plan", err}
		}
		rec.Plan, rec.Pred, res.Cols = p.Summary(), p.PredictedEJ(), op.Schema().Names()
		start = time.Now() // a SELECT's wall time is its execution
		s.guarded(func() {
			rec.B = s.Prof.Profile(st.Name, func() { res.Rows, err = exec.Collect(op) })
		})
		rec.Rows = uint64(len(res.Rows))
	case *sql.ExplainStmt:
		var p *plan.Prepared
		if a.Energy {
			if p, err = plan.Prepare(s.Eng, a.Stmt); err != nil {
				return Result{}, &Error{"plan", err}
			}
			_, read := a.Stmt.(*sql.SelectStmt)
			write = !read
			rec.Pred = p.PredictedEJ()
			s.guarded(func() { res.Rows, res.Cols, rec.B, err = p.ExplainEnergy(s.Prof) })
		} else {
			class = "plan"
			rec.B = s.Prof.Profile(st.Name, func() {
				if p, err = plan.Prepare(s.Eng, a.Stmt); err == nil {
					res.Rows, res.Cols = p.Explain()
				}
			})
		}
		if err == nil {
			rec.Plan = p.Summary()
		}
		rec.Rows = uint64(len(res.Rows))
	case *sql.InsertStmt:
		write = true
		var n int
		s.guarded(func() {
			rec.B = s.Prof.Profile(st.Name, func() { n, err = plan.ExecWrite(s.Eng, s.tx, a) })
		})
		rec.Rows, res.Cols, res.Rows = affected(n)
	default: // UPDATE, DELETE: Parse admits nothing else
		write = true
		var p *plan.Prepared
		var n int
		if p, err = plan.Prepare(s.Eng, a); err != nil {
			class = "plan" // nothing ran, but an open transaction is over all the same
		} else {
			rec.Plan, rec.Pred = p.Summary(), p.PredictedEJ()
			s.guarded(func() {
				rec.B = s.Prof.Profile(st.Name, func() { n, err = p.ExecWrite(s.tx) })
			})
		}
		rec.Rows, res.Cols, res.Rows = affected(n)
	}
	rec.Wall, rec.OK, res.Energy = time.Since(start).Seconds(), err == nil, rec.B
	s.Retire(rec)
	if err == nil {
		return res, nil
	}
	if errors.Is(err, exec.ErrCanceled) {
		class, err = "timeout", fmt.Errorf("statement timeout: canceled after %v", s.Timeout)
	}
	if write && s.tx != nil {
		if _, rbErr := s.control(wire.TxnRollback, start); rbErr != nil {
			err = errors.Join(err, rbErr)
		}
		err = fmt.Errorf("%w %s", err, wire.TxnRolledBackSuffix)
	}
	return Result{}, &Error{class, err}
}

// affected is the answer of a DML statement that changed n rows.
func affected(n int) (uint64, []string, []value.Row) {
	return uint64(n), []string{"rows_affected"}, []value.Row{{value.Int(int64(n))}}
}

// guarded runs fn with a fresh cancel flag wired into the executor and, when
// a timeout is set, a watchdog that raises it. The flag is per statement, so
// a watchdog that fires late flips a flag no longer wired to anything and
// can never poison a later statement. Go delivers an expired timer when the
// scheduler next runs, which a short batch plan need not wait for (see
// exec.Ctx's yield cadence), so a timeout that has already passed once the
// watchdog is armed is raised here and cancels fn at its first checkpoint.
func (s *Session) guarded(fn func()) {
	cancel := new(atomic.Bool)
	s.Eng.Ctx.Cancel = cancel
	defer func() { s.Eng.Ctx.Cancel = nil }()
	if s.Timeout > 0 {
		armed := time.Now()
		defer time.AfterFunc(s.Timeout, func() { cancel.Store(true) }).Stop()
		if time.Since(armed) >= s.Timeout {
			cancel.Store(true)
		}
	}
	fn()
}

// Txn runs one transaction control and reports the new transaction state as
// a one-row result. Commit fsyncs the WAL and rollback walks the undo chain,
// so the controls are profiled regions like any statement.
func (s *Session) Txn(op wire.TxnOp) (Result, error) {
	start := time.Now()
	var err error
	switch {
	case op < wire.TxnBegin || op > wire.TxnRollback:
		err = fmt.Errorf("unknown txn op %v", op)
	case op == wire.TxnBegin && s.tx != nil:
		err = fmt.Errorf("transaction %d already open", s.tx.ID())
	case op != wire.TxnBegin && s.tx == nil:
		err = errors.New("no transaction open")
	}
	if err != nil {
		return Result{}, &Error{"txn", err}
	}
	rec, err := s.control(op, start)
	s.Eng.EndRead() // a commit or rollback left the view on a fresh read snapshot
	if err != nil {
		return Result{}, &Error{"txn", err}
	}
	status := op.String()
	if id, open := s.InTxn(); open {
		status = fmt.Sprintf("%s (txn %d)", op, id)
	}
	return Result{
		Name: rec.Name, Cols: []string{"status"}, Rows: []value.Row{{value.Str(status)}}, Energy: rec.B,
	}, nil
}

// control runs an admissible transaction control inside one profiled region
// and retires its record. The record is OK even when commit or rollback
// errored: the WAL fsync or undo walk already charged the meter, and the
// transaction is over.
func (s *Session) control(op wire.TxnOp, start time.Time) (Record, error) {
	name := strings.ToLower(op.String())
	tx := s.tx
	if op != wire.TxnBegin {
		s.tx = nil
		s.Eng.Bind(tx)
	}
	var err error
	b := s.Prof.Profile(name, func() {
		switch op {
		case wire.TxnBegin:
			s.tx = s.Eng.Begin()
		case wire.TxnCommit:
			err = s.Eng.Commit(tx)
		default:
			err = s.Eng.Rollback(tx)
		}
	})
	rec := Record{Name: name, Text: name, Wall: time.Since(start).Seconds(), B: b, OK: true}
	s.Retire(rec)
	return rec, err
}
