package plan

import (
	"fmt"

	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

// ExecWrite lowers a DML statement (INSERT, UPDATE, DELETE) onto the
// engine's transactional write paths and returns the number of rows
// affected. With tx nil the statement autocommits (one statement, one
// transaction); otherwise the writes join tx and become visible at its
// commit. Write-write conflicts surface as txn.ErrWriteConflict — under an
// explicit transaction the caller decides whether to roll back.
func ExecWrite(e *engine.Engine, tx *txn.Txn, stmt sql.Statement) (int, error) {
	if tx == nil {
		return e.Autocommit(func(t *txn.Txn) (int, error) { return execWriteTxn(e, t, stmt) })
	}
	return execWriteTxn(e, tx, stmt)
}

func execWriteTxn(e *engine.Engine, tx *txn.Txn, stmt sql.Statement) (int, error) {
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		return execInsert(e, tx, s)
	case *sql.UpdateStmt:
		return execUpdate(e, tx, s)
	case *sql.DeleteStmt:
		return execDelete(e, tx, s)
	default:
		return 0, fmt.Errorf("plan: %T is not a DML statement", stmt)
	}
}

func execInsert(e *engine.Engine, tx *txn.Txn, s *sql.InsertStmt) (int, error) {
	t, err := e.Table(s.Table)
	if err != nil {
		return 0, err
	}
	schema := t.Schema()
	cols := s.Cols
	if len(cols) == 0 {
		if len(s.Values) != len(schema.Columns) {
			return 0, fmt.Errorf("plan: INSERT supplies %d values for %d columns",
				len(s.Values), len(schema.Columns))
		}
		cols = schema.Names()
	}
	row := make(value.Row, len(schema.Columns))
	nodes := 0
	for i, col := range cols {
		ci, err := schema.ColIndex(col)
		if err != nil {
			return 0, err
		}
		v, n, err := evalLiteral(s.Values[i])
		if err != nil {
			return 0, fmt.Errorf("plan: INSERT value for %q: %w", col, err)
		}
		nodes += n
		row[ci], err = coerce(v, schema.Columns[ci].Type)
		if err != nil {
			return 0, fmt.Errorf("plan: INSERT value for %q: %w", col, err)
		}
	}
	e.Ctx.EvalCost(nodes)
	e.InsertTxn(tx, t, row)
	return 1, nil
}

func execUpdate(e *engine.Engine, tx *txn.Txn, s *sql.UpdateStmt) (int, error) {
	t, err := e.Table(s.Table)
	if err != nil {
		return 0, err
	}
	schema := t.Schema()
	pred, err := compileOptional(s.Where, schema)
	if err != nil {
		return 0, err
	}
	type setter struct {
		ci    int
		expr  setExpr
		nodes int
	}
	sets := make([]setter, 0, len(s.Sets))
	for _, sc := range s.Sets {
		ci, err := schema.ColIndex(sc.Col)
		if err != nil {
			return 0, err
		}
		ex, err := compile(sc.Expr, schema)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setter{ci: ci, expr: ex, nodes: ex.Nodes()})
	}
	return e.UpdateWhereTxn(tx, t, pred, func(r value.Row) value.Row {
		for _, st := range sets {
			e.Ctx.EvalCost(st.nodes)
			r[st.ci] = st.expr.Eval(r)
			// On a type mismatch the value stays as evaluated (comparisons
			// handle mixed numerics).
			if v, err := coerce(r[st.ci], schema.Columns[st.ci].Type); err == nil {
				r[st.ci] = v
			}
		}
		return r
	})
}

func execDelete(e *engine.Engine, tx *txn.Txn, s *sql.DeleteStmt) (int, error) {
	t, err := e.Table(s.Table)
	if err != nil {
		return 0, err
	}
	pred, err := compileOptional(s.Where, t.Schema())
	if err != nil {
		return 0, err
	}
	return e.DeleteWhereTxn(tx, t, pred)
}

// setExpr is the evaluable slice of exec.Expr the setters need.
type setExpr interface {
	Eval(value.Row) value.Value
	Nodes() int
}

// compileOptional compiles a possibly-absent predicate.
func compileOptional(n sql.Node, schema *catalog.Schema) (exec.Expr, error) {
	if n == nil {
		return nil, nil
	}
	return compile(n, schema)
}

// evalLiteral folds a literal expression (numbers, strings, arithmetic over
// them) to a value; column references are rejected — INSERT VALUES has no
// input row. It returns the value and the expression's node count for eval
// costing.
func evalLiteral(n sql.Node) (value.Value, int, error) {
	refs := make(map[string]bool)
	colRefs(n, refs)
	if len(refs) > 0 {
		return value.Value{}, 0, fmt.Errorf("column references are not allowed in VALUES")
	}
	ex, err := compile(n, catalog.NewSchema())
	if err != nil {
		return value.Value{}, 0, err
	}
	return ex.Eval(nil), ex.Nodes(), nil
}

// coerce converts a literal to the column type (INSERT and UPDATE write
// typed rows; 1 must land as Int in an int column and 1.0 as Float in a
// float column, or chained comparisons and index keys would misbehave).
func coerce(v value.Value, t value.Type) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch t {
	case value.TypeInt:
		if v.T == value.TypeStr {
			return v, fmt.Errorf("cannot store string in int column")
		}
		return value.Int(v.AsInt()), nil
	case value.TypeFloat:
		if v.T == value.TypeStr {
			return v, fmt.Errorf("cannot store string in float column")
		}
		return value.Float(v.AsFloat()), nil
	case value.TypeDate:
		if v.T == value.TypeStr {
			return v, fmt.Errorf("cannot store string in date column")
		}
		return value.Date(v.AsInt()), nil
	case value.TypeStr:
		if v.T != value.TypeStr {
			return v, fmt.Errorf("cannot store %v in string column", v.T)
		}
		return v, nil
	default:
		return v, nil
	}
}
