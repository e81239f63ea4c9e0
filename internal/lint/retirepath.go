package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerRetirePath proves that statement execution retires its measured
// energy on every path. The server's accounting contract: each profiled
// statement section must be folded into the session/worker ledgers whether
// the statement succeeds, fails, or unwinds early — otherwise the energy was
// measured, the device counters advanced, and the joules simply vanish from
// the ledger (energy-conservation violation between the per-query and
// per-session views).
//
// A measurement source is a call to Profile (returning a core.Breakdown) or
// a call that returns the statement pipeline's records (a Record or []Record
// whose struct carries a Breakdown: stmt.Session.Exec and Txn, and any
// function value of that shape) — the server no longer profiles, it receives
// what the pipeline profiled.
//
// The analysis runs in scopes that measure and also retire, and in every
// measuring scope of a package that declares or imports a session Ledger (a
// scope with a Profile call anywhere else is a measurement harness, not
// statement execution). A source whose result is bound to a variable is
// checked with CFG liveness: no path from the call to function exit may
// avoid every statement that hands the measurement on — to a call (retire,
// Ledger.Add, a method of its own), to the caller, into longer-lived
// storage, or to a range loop over the records. Reading one of its fields is
// not a hand-off: `return b.Total` drops the breakdown. A source whose
// result is bound to nothing — a bare statement, a blank assignment, a field
// read straight off the call — drops it on the spot.
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
	hasSource, hasRetire := false, false
	inspectShallow(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			hasSource = hasSource || measured(p, call) >= 0
			hasRetire = hasRetire || strings.Contains(strings.ToLower(calleeName(call)), "retire")
		}
		return true
	})
	if !hasSource || !(hasRetire || hasLedger(p)) {
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
			if measured(p, n.X) >= 0 {
				dropped(n.X)
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				methodCallees[sel] = true
			}
		case *ast.SelectorExpr:
			if measured(p, n.X) >= 0 && !methodCallees[n] {
				dropped(n.X)
			}
		case *ast.AssignStmt:
			// b := m.Profile(), b, err := m.Profile() and recs, res, err =
			// pipe.Exec(st) bind the measurement to the variable at the
			// measured result's position; a store into a field keeps it.
			if len(n.Rhs) != 1 {
				break
			}
			at := measured(p, n.Rhs[0])
			if at < 0 || at >= len(n.Lhs) {
				break
			}
			id, ok := ast.Unparen(n.Lhs[at]).(*ast.Ident)
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

// measured returns the position, among e's results, of the measurement a
// source call yields: 0 for a function or method named Profile, the first
// Record or []Record result for a pipeline entry point. It is -1 when e is
// not a measurement source.
func measured(p *Pass, e ast.Expr) int {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return -1
	}
	if calleeName(call) == "Profile" {
		return 0
	}
	t := p.Pkg.Info.TypeOf(call)
	if results, ok := t.(*types.Tuple); ok {
		for i := 0; i < results.Len(); i++ {
			if isRecord(results.At(i).Type()) {
				return i
			}
		}
	} else if t != nil && isRecord(t) {
		return 0
	}
	return -1
}

// isRecord reports whether t is the pipeline's record type or a slice of it:
// a struct named Record with a field of a type named Breakdown.
func isRecord(t types.Type) bool {
	if el := elemOf(t); el != nil {
		t = el
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok || typeName(t) != "Record" {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if typeName(st.Field(i).Type()) == "Breakdown" {
			return true
		}
	}
	return false
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
