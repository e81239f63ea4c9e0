package plan

import (
	"fmt"

	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/storage"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

// ExecWrite runs a DML statement (INSERT, UPDATE, DELETE) and returns the
// number of rows affected. With tx nil the statement autocommits (one
// statement, one transaction); otherwise the writes join tx and become visible
// at its commit. Write-write conflicts surface as txn.ErrWriteConflict — under
// an explicit transaction the caller decides whether to roll back. An INSERT
// goes straight to the engine; an UPDATE or DELETE is planned (Prepare)
// and its plan drained.
func ExecWrite(e *engine.Engine, tx *txn.Txn, stmt sql.Statement) (int, error) {
	if ins, ok := stmt.(*sql.InsertStmt); ok {
		if tx == nil {
			return e.Autocommit(func(t *txn.Txn) (int, error) { return execInsert(e, t, ins) })
		}
		return execInsert(e, tx, ins)
	}
	p, err := Prepare(e, stmt)
	if err != nil {
		return 0, err
	}
	return p.ExecWrite(tx)
}

// ExecWrite runs a prepared UPDATE or DELETE under tx, or as a transaction of
// its own when tx is nil, and returns the number of rows affected.
func (p *Prepared) ExecWrite(tx *txn.Txn) (int, error) {
	if p.Root.Kind != opWrite {
		return 0, fmt.Errorf("plan: %s is not the plan of a write", p.Root.Title())
	}
	op, err := p.Build()
	if err != nil {
		return 0, err
	}
	if tx != nil {
		p.E.Bind(tx)
	} else {
		p.E.Unbind()
	}
	return p.drain(op)
}

// drain runs a built plan to completion and returns its row count — rows
// affected, for a write. A write plan on an engine with no transaction bound
// runs as one of its own.
func (p *Prepared) drain(op exec.Operator) (int, error) {
	if p.Root.Kind == opWrite && p.E.Txn() == nil {
		return p.E.Autocommit(func(*txn.Txn) (int, error) { return exec.Drain(op) })
	}
	return exec.Drain(op)
}

// readOf is the read half of an UPDATE or DELETE: the rows of table that
// pass where, read for the columns where tests and the SET expressions take
// as input. The write itself gets the whole row (the heap hands a scan or a
// fetch every column), so only the runs the read names are priced and
// loaded; planned as a write (newPlanCtx), the read keeps the tuple headers.
func readOf(table string, where sql.Node, sets []sql.SetClause) *sql.SelectStmt {
	items := make([]sql.SelectItem, len(sets))
	for i, sc := range sets {
		items[i].Expr = sc.Expr
	}
	return &sql.SelectStmt{Items: items, From: table, Where: where}
}

// buildWrite puts the write node of an UPDATE (sets non-empty) or DELETE over
// the scan of its table.
func (pc *planCtx) buildWrite(scan *Node, sets []sql.SetClause) (*Node, error) {
	t := pc.rels[0].t
	schema := t.Schema()
	w := &Node{
		Kind: opWrite, Kids: []*Node{scan},
		Table: t, TableName: pc.rels[0].name,
		reads:   storage.Reads{}.Writing(), // a store writes every run
		schema:  schema,
		EstRows: scan.EstRows,
	}
	type setter struct {
		ci   int
		expr exec.Expr
	}
	setters := make([]setter, 0, len(sets))
	for _, sc := range sets {
		ci, err := schema.ColIndex(sc.Col)
		if err != nil {
			return nil, err
		}
		ex, err := compile(sc.Expr, schema)
		if err != nil {
			return nil, err
		}
		setters = append(setters, setter{ci: ci, expr: ex})
		w.SetNames = append(w.SetNames, sc.Col)
		w.setNodes += ex.Nodes()
	}
	if len(setters) > 0 {
		w.set = func(r value.Row) (value.Row, error) {
			for _, st := range setters {
				v, err := coerce(st.expr.Eval(r), schema.Columns[st.ci].Type)
				if err != nil {
					return nil, fmt.Errorf("plan: UPDATE value for %q: %w", schema.Columns[st.ci].Name, err)
				}
				r[st.ci] = v
			}
			return r, nil
		}
	}
	pc.costRow(w, bind(w))
	return w, nil
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
