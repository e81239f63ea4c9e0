package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// AnalyzerCounterDelta flags raw `a - b` subtraction on uint64 values that
// look like monotonic PMU or ledger counters. Cumulative counters go
// backwards when they are reset (Machine.Reset, Hierarchy.ResetCounters)
// or when a baseline is re-synchronized across machines; raw uint64
// subtraction then underflows to ~2^64 and poisons every downstream energy
// figure. This exact bug shipped twice: StallAwareGovernor.Tick (fixed in
// PR 4) and memsim.Counters.Sub (fixed in this PR). The invariant: every counter delta must clamp at zero.
//
// A subtraction is exempt when either operand is a constant (index/align
// arithmetic), when the enclosing function guards the same operand pair
// with an ordering comparison (the monotonicDelta clamp shape), or when
// the site carries a //lint:monotonic waiver explaining why the pair
// cannot go backwards.
var AnalyzerCounterDelta = &Analyzer{
	Name:      "counterdelta",
	Doc:       "raw uint64 subtraction on monotonic PMU/ledger counters underflows on counter reset",
	WaiverKey: "monotonic",
	Run:       runCounterDelta,
}

// counterName matches identifiers and field names that the codebase uses
// for cumulative hardware/ledger counters (memsim.Counters fields, governor
// baselines, ledger tallies).
var counterName = regexp.MustCompile(`(?i)(cycle|stall|counter|tick|transition|quer(y|ies)|access|hit|miss|load|store|ops\b|slot|crossing|prefetch|instr|uops|events?\b|retired)`)

func runCounterDelta(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, fn := range declScopes(file) {
			fn := fn
			ast.Inspect(fn.body, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || bin.Op != token.SUB {
					return true
				}
				if !isUint64(pass, bin.X) || !isUint64(pass, bin.Y) {
					return true
				}
				if isConst(pass, bin.X) || isConst(pass, bin.Y) {
					return true
				}
				if !counterMarked(pass, bin.X) && !counterMarked(pass, bin.Y) {
					return true
				}
				if clampGuarded(fn.body, bin.X, bin.Y) {
					return true
				}
				pass.Reportf(bin.OpPos,
					"raw uint64 counter delta %s - %s can underflow when the counter resets; clamp it (see cpusim.monotonicDelta) or waive with //lint:monotonic",
					exprString(bin.X), exprString(bin.Y))
				return true
			})
		}
	}
}

// isUint64 reports whether the expression's type has underlying uint64.
func isUint64(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// isConst reports whether the expression is a compile-time constant.
func isConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// counterMarked reports whether the expression names a counter: the final
// identifier/selector matches the counter-name vocabulary, or it selects a
// field of (or calls a method on) a type whose name ends in "Counters".
func counterMarked(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		return counterName.MatchString(e.Name)
	case *ast.SelectorExpr:
		if counterName.MatchString(e.Sel.Name) {
			return true
		}
		return countersOwner(pass, e.X)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if counterName.MatchString(sel.Sel.Name) {
				return true
			}
			return countersOwner(pass, sel.X)
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			return counterName.MatchString(id.Name)
		}
	}
	return false
}

// countersOwner reports whether the expression's type is named and its name
// ends in "Counters" (memsim.Counters and friends): every field or method
// of such a type is treated as counter-marked regardless of its own name.
func countersOwner(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && strings.HasSuffix(named.Obj().Name(), "Counters")
}

// clampGuarded reports whether the function body contains an ordering
// comparison over the same operand pair (in either order) — the clamp shape
//
//	if cur < last { return 0 }
//	return cur - last
//
// which proves the author considered the backwards case.
func clampGuarded(body *ast.BlockStmt, x, y ast.Expr) bool {
	xs, ys := exprString(x), exprString(y)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		a, b := exprString(bin.X), exprString(bin.Y)
		if (a == xs && b == ys) || (a == ys && b == xs) {
			found = true
			return false
		}
		return true
	})
	return found
}
