package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerRetirePath proves that statement execution retires its measured
// energy on every path. The server's accounting contract: each profiled
// statement section (prof.Profile(...) returning a core.Breakdown) must be
// folded into the session/worker ledgers whether the statement succeeds,
// fails, or unwinds early — otherwise the energy was measured, the device
// counters advanced, and the joules simply vanish from the ledger
// (energy-conservation violation between the per-query and per-session
// views).
//
// The analysis runs in scopes that profile and also retire, and in every
// profiling scope of a package that declares or imports a session Ledger (a
// scope with a Profile call anywhere else is a measurement harness, not
// statement execution). A Profile call whose result is bound to a variable
// is checked with CFG liveness: no path from the call to function exit may
// avoid every statement that hands the breakdown on — to a call (retire,
// Ledger.Add, a method of its own), to the caller, or into longer-lived
// storage. Reading one of its fields is not a hand-off: `return b.Total`
// drops the breakdown. A Profile call whose result is bound to nothing —
// a bare statement, a blank assignment, a field read straight off the call
// — drops it on the spot.
var AnalyzerRetirePath = &Analyzer{
	Name:      "retirepath",
	Doc:       "profiled statement breakdowns must be retired to the ledgers on every path, including error and early-return paths",
	WaiverKey: "retirepath",
	Run:       runRetirePath,
}

func runRetirePath(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, fs := range funcScopes(f) {
			checkRetireScope(p, fs)
		}
	}
}

func checkRetireScope(p *Pass, fs funcScope) {
	hasProfile, hasRetire := false, false
	inspectShallow(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			name := calleeName(call)
			hasProfile = hasProfile || name == "Profile"
			hasRetire = hasRetire || strings.Contains(strings.ToLower(name), "retire")
		}
		return true
	})
	if !hasProfile || !(hasRetire || hasLedger(p)) {
		return
	}

	g := p.Prog.cfgOf(fs.body)
	dropped := func(call ast.Expr) {
		p.Reportf(call.Pos(),
			"energy is measured here but never retired: add it to a ledger (retire/Add) or return the Breakdown; dropped measurements break the exact-partition invariant")
	}
	// follow tracks the breakdown the Profile assignment st binds to obj.
	follow := func(st *ast.AssignStmt, obj types.Object) {
		// A closure that does not retire hands a captured variable's
		// breakdown to the enclosing function by assigning it.
		if obj == nil || (!hasRetire && fs.captures(obj)) {
			return
		}
		retires := func(s ast.Stmt) bool {
			return s != ast.Stmt(st) && handsOn(p, stmtEvalNode(s), obj)
		}
		switch {
		case !avoidSearch(g.byStmt[st], map[*cnode]bool{g.exit: true}, retires):
		case !g.anyMatch(retires):
			// Nothing to add a path to: point at the measurement itself.
			dropped(st.Rhs[0])
		default:
			p.Reportf(st.Pos(),
				"%s: profiled breakdown %q can reach function exit without being retired to the ledger; every path (success, error, early return) must account the measured energy",
				fs.name, obj.Name())
		}
	}
	// Selectors that are the callee of a method call: m.Profile().AddTo(l)
	// hands the result on, m.Profile().Total reads one field of it.
	methodCallees := map[*ast.SelectorExpr]bool{}
	inspectShallow(fs.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if isProfileCall(n.X) {
				dropped(n.X)
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				methodCallees[sel] = true
			}
		case *ast.SelectorExpr:
			if isProfileCall(n.X) && !methodCallees[n] {
				dropped(n.X)
			}
		case *ast.AssignStmt:
			// b := m.Profile() and b, err := m.Profile() bind the breakdown
			// to the first variable; a store into a field keeps it.
			if len(n.Rhs) != 1 || !isProfileCall(n.Rhs[0]) {
				break
			}
			id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident)
			switch {
			case !ok:
			case id.Name == "_":
				dropped(n.Rhs[0])
			default:
				follow(n, p.Pkg.Info.ObjectOf(id))
			}
		}
		return true
	})
}

// hasLedger reports whether the package declares or imports a session
// Ledger: a type of that name with an Add method.
func hasLedger(p *Pass) bool {
	for _, tn := range reachableTypes(p, "Ledger") {
		if hasMethod(tn.Type(), "Add") {
			return true
		}
	}
	return false
}

// isProfileCall reports whether e is a call to a function or method named
// Profile.
func isProfileCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && calleeName(call) == "Profile"
}

// handsOn reports whether the fragment passes the breakdown on whole — as
// a call argument (field reads included: l.Add(b.Total) retires), the
// receiver of a method call (b.AddTo(l)), a returned or stored value —
// rather than merely reading a field of it.
func handsOn(p *Pass, n ast.Node, obj types.Object) bool {
	if n == nil {
		return false
	}
	objs := map[types.Object]bool{obj: true}
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && p.Pkg.Info.Uses[id] == obj
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && isObj(sel.X) {
				found = true
			}
			for _, arg := range n.Args {
				found = found || mentions(p, arg, objs)
			}
		case *ast.SelectorExpr:
			if isObj(n.X) {
				return false
			}
		case *ast.Ident:
			found = found || p.Pkg.Info.Uses[n] == obj
		}
		return !found
	})
	return found
}
