package lint

import (
	"go/ast"
	"go/types"
	"path"
)

// AnalyzerWalErr proves durability-error propagation: an error returned by
// a commit/abort/sync/append call on the engine, transaction, storage or
// WAL layer must reach the caller or the transaction abort path. Dropping
// one turns a failed durability point into a silently "successful"
// statement — the ledger charges the energy, the client sees OK, and the
// data is gone. The check is CFG liveness on the dataflow engine: the
// error value must be read (returned, tested, joined, deferred) on every
// path from its definition to function exit.
//
// Flagged shapes:
//   - the call as a bare statement (result discarded outright),
//   - the error assigned to the blank identifier,
//   - the error assigned to a variable that can reach function exit
//     without ever being read.
var AnalyzerWalErr = &Analyzer{
	Name: "walerr",
	Doc:  "WAL/engine/txn durability errors (Commit/Rollback/Abort/Sync/Append) must reach the caller or the abort path",
	Run:  runWalErr,
}

// walErrMethods are the durability points.
var walErrMethods = map[string]bool{
	"Commit": true, "Rollback": true, "Abort": true,
	"Sync": true, "Append": true,
}

// walErrPackages are the layers whose durability errors must propagate.
var walErrPackages = map[string]bool{
	"engine": true, "txn": true, "storage": true, "wal": true,
}

func runWalErr(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, fs := range funcScopes(f) {
			checkWalErrScope(p, fs)
		}
	}
}

// durabilityCall reports whether the call is an error-returning durability
// method on one of the guarded layers, and names it for diagnostics.
func durabilityCall(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !walErrMethods[sel.Sel.Name] {
		return "", false
	}
	if !lastResultIsError(p.TypeOf(call)) {
		return "", false
	}
	var pkg *types.Package
	if s, ok := p.Pkg.Info.Selections[sel]; ok {
		recv := s.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			pkg = named.Obj().Pkg()
		}
	} else if obj := p.Pkg.Info.Uses[sel.Sel]; obj != nil {
		pkg = obj.Pkg() // package-qualified function call
	}
	if pkg == nil || !walErrPackages[path.Base(pkg.Path())] {
		return "", false
	}
	return exprString(sel.X) + "." + sel.Sel.Name, true
}

func lastResultIsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func checkWalErrScope(p *Pass, fs funcScope) {
	// Named results: a bare (or any) return reads them.
	namedResults := map[types.Object]bool{}
	if fd, ok := fs.node.(*ast.FuncDecl); ok && fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := p.Pkg.Info.Defs[name]; obj != nil {
					namedResults[obj] = true
				}
			}
		}
	}

	var g *cfg // built lazily: most scopes have no durability calls
	inspectShallow(fs.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
				if name, ok := durabilityCall(p, call); ok {
					p.Reportf(st.Pos(),
						"%s: error from %s is discarded; a failed durability point must reach the caller or the abort path",
						fs.name, name)
				}
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := durabilityCall(p, call)
			if !ok {
				return true
			}
			// The error is the last value on the left.
			lhs := st.Lhs[len(st.Lhs)-1]
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				return true
			}
			if id.Name == "_" {
				p.Reportf(st.Pos(),
					"%s: error from %s is assigned to _; a failed durability point must reach the caller or the abort path",
					fs.name, name)
				return true
			}
			obj := p.Pkg.Info.ObjectOf(id)
			if obj == nil {
				return true
			}
			// Assigning to a variable captured from an enclosing function
			// propagates the error out of this closure by construction —
			// the enclosing scope reads it after the closure runs (the
			// prof.Profile(func(){ err = ... }) shape).
			if fs.captures(obj) {
				return true
			}
			if g == nil {
				g = p.Prog.cfgOf(fs.body)
			}
			def := g.byStmt[ast.Stmt(st)]
			if def == nil {
				return true
			}
			errVar := map[types.Object]bool{obj: true}
			reads := func(s ast.Stmt) bool {
				if s == ast.Stmt(st) {
					return false // the definition itself
				}
				if _, isRet := s.(*ast.ReturnStmt); isRet && namedResults[obj] {
					return true
				}
				return mentions(p, stmtEvalNode(s), errVar)
			}
			if avoidSearch(def, map[*cnode]bool{g.exit: true}, reads) {
				p.Reportf(st.Pos(),
					"%s: error from %s can reach function exit without being read; a failed durability point must reach the caller or the abort path",
					fs.name, name)
			}
		}
		return true
	})
}
