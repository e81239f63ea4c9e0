package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerLedgerRetire generalizes the client.Dial socket leak fixed in
// PR 4: a function that acquires a connection-like resource (a call to a
// Dial* function whose first result has a Close method) must settle it on
// every path to a return. A path is settled by a Close call on the resource
// or on a closeable value built from it (direct or deferred — the guard-flag
// `defer func() { if !ok { c.Close() } }()` shape counts), or by letting it
// escape: returned to the caller, stored into a field, sent on a channel,
// handed to a goroutine.
//
// It is a must-reach query on the chargeflow engine: from the acquiring
// assignment, no return may be reachable along a path that avoids every
// settling node. The `if err != nil` branch that directly follows the
// acquisition and tests its own error is pruned: the resource was never
// obtained there. A later `if err := handshake(nc); err != nil` is a
// different error with a live socket, and is not.
//
// (The analyzer's other historical half — measured energy that is never
// retired into a ledger — is retirepath's rule now.)
var AnalyzerLedgerRetire = &Analyzer{
	Name: "ledgerretire",
	Doc:  "Dial-shaped acquisitions must be closed or handed on along every return path",
	Run:  runLedgerRetire,
}

func runLedgerRetire(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, fs := range funcScopes(file) {
			inspectShallow(fs.body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					checkDialRelease(pass, fs, as)
				}
				return true
			})
		}
	}
}

// checkDialRelease runs the must-reach query for one assignment if it is a
// Dial-shaped acquisition: `c, err := pkg.DialX(...)` or `c := DialX(...)`
// where c has a Close method.
func checkDialRelease(pass *Pass, fs funcScope, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !strings.HasPrefix(calleeName(call), "Dial") {
		return
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	res := pass.Pkg.Info.ObjectOf(id)
	if res == nil || !hasMethod(res.Type(), "Close") {
		return
	}

	// Closeable values built from the resource keep it reachable: closing
	// or returning the bufio/Conn wrapper settles the socket inside it.
	aliases := map[types.Object]bool{res: true}
	inspectShallow(fs.body, func(n ast.Node) bool {
		if wrap, ok := n.(*ast.AssignStmt); ok {
			for i, lhs := range wrap.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !mentions(pass, wrap.Rhs[min(i, len(wrap.Rhs)-1)], aliases) {
					continue
				}
				if obj := pass.Pkg.Info.ObjectOf(id); obj != nil && hasMethod(obj.Type(), "Close") {
					aliases[obj] = true
				}
			}
		}
		return true
	})

	g := pass.Prog.cfgOf(fs.body)
	def := g.byStmt[as]
	var failed *ast.BlockStmt // the acquisition's own `if err != nil` branch
	if errID, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && len(as.Lhs) > 1 && len(def.succs) == 1 {
		if guard, ok := def.succs[0].stmt.(*ast.IfStmt); ok && testsNonNil(pass, guard.Cond, pass.Pkg.Info.ObjectOf(errID)) {
			failed = guard.Body
		}
	}
	settled := func(st ast.Stmt) bool {
		if failed != nil && failed.Pos() <= st.Pos() && st.End() <= failed.End() {
			return true
		}
		return settles(pass, st, aliases)
	}
	for _, n := range g.nodes {
		ret, ok := n.stmt.(*ast.ReturnStmt)
		if ok && !settled(ret) && avoidSearch(def, map[*cnode]bool{n: true}, settled) {
			pass.Reportf(ret.Pos(),
				"%s result %s may leak: this return path neither closes it nor hands it to the caller (the client.Dial handshake-leak shape); close it or guard with a deferred cleanup",
				calleeName(call), id.Name)
		}
	}
}

// testsNonNil matches the condition `obj != nil`.
func testsNonNil(pass *Pass, cond ast.Expr, obj types.Object) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ || obj == nil {
		return false
	}
	x, _ := ast.Unparen(bin.X).(*ast.Ident)
	y, _ := ast.Unparen(bin.Y).(*ast.Ident)
	return x != nil && y != nil && pass.Pkg.Info.Uses[x] == obj && y.Name == "nil"
}

// settles reports whether executing st closes the resource (a Close call on
// an alias anywhere in the fragment, deferred closures included) or lets it
// escape the function.
func settles(pass *Pass, st ast.Stmt, aliases map[types.Object]bool) bool {
	root := stmtEvalNode(st)
	switch st := st.(type) {
	case *ast.ReturnStmt, *ast.SendStmt, *ast.GoStmt:
		if mentions(pass, root, aliases) {
			return true
		}
	case *ast.AssignStmt:
		// Stored into a field, index or deref: outlives the call. A plain
		// local on the left is at most another alias.
		for i, lhs := range st.Lhs {
			if _, local := lhs.(*ast.Ident); !local && mentions(pass, st.Rhs[min(i, len(st.Rhs)-1)], aliases) {
				return true
			}
		}
	}
	return anyCall(root, func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Close" && mentions(pass, sel.X, aliases)
	})
}
