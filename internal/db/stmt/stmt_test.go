package stmt_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/stmt"
	"energydb/internal/rapl"
	"energydb/internal/server/wire"
	"energydb/internal/tpch"
)

// recorder is a pipeline on a direct SQLite engine, what dbshell's local
// mode builds, whose sink keeps the records of the current call.
type recorder struct {
	*stmt.Session
	recs []stmt.Record
}

func newSession(t *testing.T) *recorder {
	t.Helper()
	r := &recorder{}
	r.Session = sessionOn(t, engine.SQLite, func(rec stmt.Record) { r.recs = append(r.recs, rec) })
	return r
}

// sessionOn is a pipeline over a fresh 10MB store of the given profile that
// retires into retire.
func sessionOn(t testing.TB, kind engine.Kind, retire func(stmt.Record)) *stmt.Session {
	t.Helper()
	st, err := core.NewStack(cpusim.PStateMax, 42, rapl.DefaultNoise, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(kind, st.M, engine.SettingBaseline)
	tpch.Setup(eng, tpch.Size10MB)
	return &stmt.Session{Eng: eng, Prof: st.Profiler(), Retire: retire}
}

// call runs one pipeline call and returns, with its answer, the records the
// sink received before it returned.
func (r *recorder) call(fn func() (stmt.Result, error)) ([]stmt.Record, stmt.Result, error) {
	r.recs = nil
	res, err := fn()
	return r.recs, res, err
}

// run parses and executes one statement.
func (r *recorder) run(text string) ([]stmt.Record, stmt.Result, error) {
	st, err := stmt.Parse(text)
	if err != nil {
		return nil, stmt.Result{}, err
	}
	return r.call(func() (stmt.Result, error) { return r.Exec(st) })
}

// shape renders a record sequence: names in order, "!" marking a record that
// is energy only.
func shape(recs []stmt.Record) string {
	names := make([]string, len(recs))
	for i, r := range recs {
		names[i] = r.Name
		if !r.OK {
			names[i] += "!"
		}
	}
	return strings.Join(names, ",")
}

// TestPipeline drives every statement kind and every error class through one
// session, in order (transaction state carries from step to step).
func TestPipeline(t *testing.T) {
	s := newSession(t)
	const (
		sel     = "SELECT n_name FROM nation WHERE n_nationkey = 4"
		torn    = "UPDATE nation SET n_nationkey = 99 WHERE n_nationkey = 4" // indexed column: fails mid-statement
		slowUpd = "UPDATE lineitem SET l_shipmode = 'x'"
	)
	steps := []struct {
		text    string
		timeout time.Duration
		class   string // "" = success
		recs    string
		inTxn   bool
		cols    string
		cell    string // first cell of the first row, if set
		suffix  bool   // error ends in wire.TxnRolledBackSuffix
	}{
		{text: sel, recs: "query", cols: "n_name", cell: "EGYPT"},
		{text: `\q6`, recs: "tpch-q6", cols: "revenue"},
		{text: `\qx`, class: "parse"},
		{text: `\q99`, class: "parse"},
		{text: "  ", class: "parse"},
		{text: "SELEC nope", class: "parse"},
		{text: "SELECT x FROM missing_table", class: "plan"},
		{text: "EXPLAIN " + sel, recs: "explain", cols: "plan"},
		{text: "EXPLAIN SELECT x FROM missing_table", class: "plan", recs: "explain!"},
		{text: "EXPLAIN ENERGY " + sel, recs: "explain-energy", cols: "plan"},
		{text: "INSERT INTO region VALUES (9, 'ATLANTIS')", recs: "insert", cols: "rows_affected", cell: "1"},
		{text: "UPDATE region SET r_name = 'LEMURIA' WHERE r_regionkey = 9", recs: "update", cols: "rows_affected", cell: "1"},
		{text: "DELETE FROM region WHERE r_regionkey = 9", recs: "delete", cols: "rows_affected", cell: "1"},
		{text: torn, class: "exec", recs: "update!"},
		{text: `\q1`, timeout: time.Nanosecond, class: "timeout", recs: "tpch-q1!"},

		{text: "COMMIT", class: "txn"},
		{text: "ROLLBACK", class: "txn"},
		{text: "BEGIN", recs: "begin", inTxn: true, cols: "status", cell: "BEGIN (txn"},
		{text: "BEGIN", class: "txn", inTxn: true},
		{text: "UPDATE nation SET n_name = 'DOOMED' WHERE n_nationkey = 4", recs: "update", inTxn: true, cell: "1"},
		{text: sel, recs: "query", inTxn: true, cell: "DOOMED"},
		{text: torn, class: "exec", recs: "update!,rollback", suffix: true},
		{text: sel, recs: "query", cell: "EGYPT"},

		{text: "begin", recs: "begin", inTxn: true},
		{text: "UPDATE nation SET n_name = 'KEPT' WHERE n_nationkey = 4", recs: "update", inTxn: true},
		{text: "COMMIT", recs: "commit", cols: "status", cell: "COMMIT"},
		{text: sel, recs: "query", cell: "KEPT"},
		{text: "BEGIN", recs: "begin", inTxn: true},
		{text: "UPDATE nation SET n_name = 'DROPPED' WHERE n_nationkey = 4", recs: "update", inTxn: true},
		{text: "ROLLBACK", recs: "rollback", cell: "ROLLBACK"},
		{text: sel, recs: "query", cell: "KEPT"},

		{text: "BEGIN", recs: "begin", inTxn: true},
		{text: slowUpd, timeout: time.Nanosecond, class: "timeout", recs: "update!,rollback", suffix: true},
	}
	for i, step := range steps {
		s.Timeout = step.timeout
		recs, res, err := s.run(step.text)
		class := ""
		var se *stmt.Error
		switch {
		case errors.As(err, &se):
			class = se.Class
		case err != nil:
			t.Fatalf("step %d %q: untyped error %v", i, step.text, err)
		}
		if class != step.class {
			t.Fatalf("step %d %q: class %q (err %v), want %q", i, step.text, class, err, step.class)
		}
		if got := shape(recs); got != step.recs {
			t.Errorf("step %d %q: records %q, want %q", i, step.text, got, step.recs)
			continue
		}
		if _, in := s.InTxn(); in != step.inTxn {
			t.Errorf("step %d %q: in transaction = %v, want %v", i, step.text, in, step.inTxn)
		}
		if err != nil {
			if got := strings.HasSuffix(err.Error(), wire.TxnRolledBackSuffix); got != step.suffix {
				t.Errorf("step %d %q: rolled-back suffix = %v in %q", i, step.text, got, err)
			}
			continue
		}
		last := recs[len(recs)-1]
		if res.Name != last.Name || res.Energy.EActive != last.B.EActive {
			t.Errorf("step %d %q: result %s/%g J does not carry its record %s/%g J",
				i, step.text, res.Name, res.Energy.EActive, last.Name, last.B.EActive)
		}
		if step.cols != "" && strings.Join(res.Cols, ",") != step.cols {
			t.Errorf("step %d %q: columns %v, want %s", i, step.text, res.Cols, step.cols)
		}
		if step.cell != "" && (len(res.Rows) == 0 || !strings.HasPrefix(res.Rows[0][0].String(), step.cell)) {
			t.Errorf("step %d %q: rows %v, want first cell %q", i, step.text, res.Rows, step.cell)
		}
	}
}

// TestTxnOpsDirect covers what only a TxnCtl frame can send.
func TestTxnOpsDirect(t *testing.T) {
	s := newSession(t)
	for _, op := range []wire.TxnOp{0, 4} {
		recs, _, err := s.call(func() (stmt.Result, error) { return s.Txn(op) })
		var se *stmt.Error
		if !errors.As(err, &se) || se.Class != "txn" || len(recs) != 0 {
			t.Errorf("op %v: recs %q, err %v; want a txn-class error and no record", op, shape(recs), err)
		}
	}
	recs, res, err := s.call(func() (stmt.Result, error) { return s.Txn(wire.TxnBegin) })
	if err != nil || shape(recs) != "begin" || res.Name != "begin" {
		t.Fatalf("begin: recs %q, result %+v, err %v", shape(recs), res, err)
	}
	if recs[0].Text != "begin" || recs[0].Wall <= 0 {
		t.Errorf("begin record = %+v", recs[0])
	}
}
