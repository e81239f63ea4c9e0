package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerPoolEscape guards the vectorized executor's reuse contract:
// batches returned by an operator's Next and vectors handed out by the
// expression pool (Prog.eval / Prog.root / pool.get / Batch.take) are
// REUSED on the next pull or the next reset — they are loans, not
// transfers. Retaining one past the loan (appending it to a slice, storing
// it in a field) aliases memory the owner is about to overwrite, which
// corrupts results in a way the energy model never sees (the counters
// charge the overwrite, the query returns the wrong rows).
//
// The analyzer tracks variables bound from pull/pool calls and flags:
//
//   - appends of a tracked value into any slice (building a collection of
//     loaned batches/vectors), and
//   - stores of a tracked value into a field or element of a longer-lived
//     object.
//
// Operators that deliberately hold the current batch between Next calls —
// consuming it fully before the next pull — waive the store with
// //lint:poolescape and a sentence saying why the hold is safe.
var AnalyzerPoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "pooled batches/vectors (operator Next results, expression-pool vectors) must not be retained past their reuse point",
	Run:  runPoolEscape,
}

// poolSourceNames are the methods/functions whose results are loans from a
// reuse pool.
var poolSourceNames = map[string]bool{
	"Next": true, "NextBatch": true, // operator pulls (batch reused per pull)
	"eval": true, "root": true, "get": true, "take": true, // expression-pool vectors
}

func runPoolEscape(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, fs := range funcScopes(f) {
			checkPoolEscapes(p, fs)
		}
	}
}

// pooledVarType reports whether t is a loanable payload carrier.
func pooledVarType(t types.Type) bool {
	name := typeName(t)
	return name == "Batch" || name == "Vector"
}

func checkPoolEscapes(p *Pass, fs funcScope) {
	// Pass 1: variables bound from pool sources.
	tracked := map[types.Object]bool{}
	inspectShallow(fs.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		if !poolSourceNames[calleeName(call)] {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := p.Pkg.Info.ObjectOf(id); obj != nil && pooledVarType(obj.Type()) {
					tracked[obj] = true
				}
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}
	isTracked := func(e ast.Expr) (types.Object, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := p.Pkg.Info.Uses[id]
		return obj, obj != nil && tracked[obj]
	}

	// Pass 2: escapes.
	inspectShallow(fs.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				for _, arg := range n.Args[1:] {
					if obj, ok := isTracked(arg); ok {
						p.Reportf(n.Pos(),
							"%s: pooled %s %q is appended to a slice; it is reused on the next pull/reset and the slice will alias overwritten memory (waive with //lint:poolescape if consumed before reuse)",
							fs.name, pooledKind(obj), obj.Name())
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				obj, ok := isTracked(rhs)
				if !ok {
					continue
				}
				if fieldStoreTarget(n.Lhs[i]) {
					p.Reportf(n.Pos(),
						"%s: pooled %s %q is stored into %s, retaining it past its reuse point (waive with //lint:poolescape if consumed before the next pull/reset)",
						fs.name, pooledKind(obj), obj.Name(), exprString(n.Lhs[i]))
				}
			}
		}
		return true
	})
}

// fieldStoreTarget reports whether the assignment target outlives the local
// frame: a field selector (x.f) or an element of one (x.f[i]).
func fieldStoreTarget(e ast.Expr) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return fieldStoreTarget(t.X)
	case *ast.StarExpr:
		return fieldStoreTarget(t.X)
	}
	return false
}

func pooledKind(obj types.Object) string {
	if typeName(obj.Type()) == "Vector" {
		return "vector"
	}
	return "batch"
}
