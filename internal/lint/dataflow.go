package lint

import (
	"go/ast"
	"go/types"
)

// This file holds the engine's one path query. Every path rule reduces to
// avoidSearch over the statement-level CFG in cfg.go: does a path exist from
// one node to a goal set that avoids every node in a fact set? ("is this
// lock still held here", "can this error value reach function exit without
// being read"). Its negation is "the fact is guaranteed on every path".
//
// Node predicates are expressed as functions over statements, so analyzers
// stay in AST vocabulary and the engine stays generic.

// stmtPred classifies CFG nodes by their statement. Synthetic nodes (entry,
// exit, joins) never match.
type stmtPred func(ast.Stmt) bool

// matches applies a predicate to a node.
func (n *cnode) matches(p stmtPred) bool {
	return n.stmt != nil && p(n.stmt)
}

// avoidSearch reports whether some path exists from `from` (exclusive) to
// any node in `goals` that passes through no node matching `avoid`. Goal
// nodes themselves are tested before the avoid predicate: reaching a goal
// wins even if the goal statement also matches avoid.
func avoidSearch(from *cnode, goals map[*cnode]bool, avoid stmtPred) bool {
	seen := map[*cnode]bool{}
	queue := []*cnode{}
	push := func(n *cnode) bool {
		// Returns true when the search is done (goal reached).
		if seen[n] {
			return false
		}
		seen[n] = true
		if goals[n] {
			return true
		}
		if n.matches(avoid) {
			return false // blocked: do not expand
		}
		queue = append(queue, n)
		return false
	}
	for _, s := range from.succs {
		if push(s) {
			return true
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range cur.succs {
			if push(s) {
				return true
			}
		}
	}
	return false
}

// stmtEvalNode returns the AST fragment a CFG node for this statement
// actually evaluates: compound statements (if/for/range/switch/select) are
// represented in the CFG by their condition/tag alone — their nested
// statements have their own nodes — so fact queries must not descend into
// them, or a conditional unlock inside a branch would look unconditional.
// Simple statements evaluate themselves.
func stmtEvalNode(st ast.Stmt) ast.Node {
	switch s := st.(type) {
	case *ast.IfStmt:
		if s.Cond != nil {
			return s.Cond
		}
		return nil
	case *ast.ForStmt:
		if s.Cond != nil {
			return s.Cond
		}
		return nil
	case *ast.RangeStmt:
		return s.X
	case *ast.SwitchStmt:
		if s.Tag != nil {
			return s.Tag
		}
		return nil
	case *ast.TypeSwitchStmt:
		return s.Assign
	case *ast.SelectStmt, *ast.BlockStmt, *ast.LabeledStmt:
		return nil
	}
	return st
}

// anyCall reports whether some call expression lexically inside n (function
// literals included) satisfies pred. A nil fragment has none.
func anyCall(n ast.Node, pred func(*ast.CallExpr) bool) bool {
	found := false
	if n == nil {
		return false
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && pred(call) {
			found = true
		}
		return !found
	})
	return found
}

// mentions reports whether the fragment names any of the objects. Function
// literals are entered: a deferred or synchronously-run closure that reads
// a value is a legitimate consumer of it. Pass stmtEvalNode(st) to ask
// about the CFG node of a statement (compound statements count only their
// condition/tag).
func mentions(p *Pass, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	if n == nil {
		return false
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[p.Pkg.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
