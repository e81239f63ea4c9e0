package sql

import "fmt"

// Statement is any parsed top-level statement: *SelectStmt, *ExplainStmt,
// *InsertStmt, *UpdateStmt, *DeleteStmt, or one of the transaction controls
// *BeginStmt / *CommitStmt / *RollbackStmt.
type Statement interface{ stmt() }

func (*SelectStmt) stmt()   {}
func (*ExplainStmt) stmt()  {}
func (*InsertStmt) stmt()   {}
func (*UpdateStmt) stmt()   {}
func (*DeleteStmt) stmt()   {}
func (*BeginStmt) stmt()    {}
func (*CommitStmt) stmt()   {}
func (*RollbackStmt) stmt() {}

// ExplainStmt is `EXPLAIN [ENERGY] <select | update | delete>`. Plain EXPLAIN
// asks for the optimizer's chosen plan with estimated cardinalities and
// predicted energy; EXPLAIN ENERGY additionally executes the statement — a
// write writes — with per-operator counter snapshots and reports each
// operator's measured Eactive breakdown.
type ExplainStmt struct {
	Energy bool
	// Stmt is the explained statement: *SelectStmt, *UpdateStmt or
	// *DeleteStmt.
	Stmt Statement
}

// ParseStatement parses one top-level statement: a SELECT, a DML statement
// (INSERT, UPDATE, DELETE), either but INSERT under EXPLAIN / EXPLAIN ENERGY,
// or a transaction control (BEGIN, COMMIT, ROLLBACK). Parse remains the
// SELECT-only entry point.
func ParseStatement(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmt Statement
	switch {
	case p.accept(tokKeyword, "BEGIN"):
		p.accept(tokKeyword, "TRANSACTION")
		stmt = &BeginStmt{}
	case p.accept(tokKeyword, "COMMIT"):
		p.accept(tokKeyword, "WORK")
		stmt = &CommitStmt{}
	case p.accept(tokKeyword, "ROLLBACK"):
		p.accept(tokKeyword, "WORK")
		stmt = &RollbackStmt{}
	case p.at(tokKeyword, "INSERT"):
		stmt, err = p.insertStmt()
	case p.accept(tokKeyword, "EXPLAIN"):
		ex := &ExplainStmt{Energy: p.accept(tokKeyword, "ENERGY")}
		ex.Stmt, err = p.plannable()
		stmt = ex
	default:
		stmt, err = p.plannable()
	}
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sql: trailing input at %q", p.cur().text)
	}
	return stmt, nil
}

// plannable parses a statement the optimizer plans: SELECT, UPDATE or DELETE.
func (p *parser) plannable() (Statement, error) {
	switch {
	case p.at(tokKeyword, "UPDATE"):
		return p.updateStmt()
	case p.at(tokKeyword, "DELETE"):
		return p.deleteStmt()
	default:
		return p.selectStmt()
	}
}
