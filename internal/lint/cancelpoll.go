package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerCancelPoll enforces the executor's cooperative-cancellation
// contract (internal/db/exec): statement timeouts only work if every loop
// that touches an unbounded number of tuples reaches a cancellation
// checkpoint on every iteration — Ctx.TupleCost, the charge-free Ctx.Poll,
// the strided Ctx.PollEvery, or any helper the interprocedural summary
// (summary.go) knows may poll. Pulling from a child Operator is a
// checkpoint too: the child's Next polls on the loop's behalf.
//
// It is a client of the chargeflow engine. A loop is in scope when it
// drives a raw cursor (a Next/Valid/NextBatch call on something that is not
// an Operator) or ranges over materialized rows; it is a finding when
// iterationCompletes finds a trip around it that avoids every checkpoint.
// A range over batch-bounded rows — a sub-slice rows[lo:hi], the result of
// a NextBatch call, or the payload of a Batch — is also accepted when a
// checkpoint is guaranteed (a must-fact, as in chargepath's dominance
// arguments) on every path from an enclosing loop head or the function
// entry to the loop: that is the vectorized executor's batch-granularity
// polling, where the uncancellable stretch is one batch or one chunk of a
// buffer. A range over a whole buffer gets no such credit, however much
// polling precedes it: Sort.Open's key extraction ran unpolled right after
// draining its child. A comparator literal passed to
// sort.Slice/SliceStable/Sort/Stable must contain a checkpoint: a large
// sort is O(n log n) comparator calls.
//
// The analyzer runs in packages that mention the executor Ctx type (one
// with a TupleCost method), so row rendering in the shell or wire encoding
// — which have no machine to poll — are out of scope. Waive a provably
// bounded loop with //lint:nopoll and a justification.
var AnalyzerCancelPoll = &Analyzer{
	Name:      "cancelpoll",
	Doc:       "executor tuple loops must poll cancellation via TupleCost or Poll",
	WaiverKey: "nopoll",
	Run:       runCancelPoll,
}

func runCancelPoll(pass *Pass) {
	if !mentionsType(pass, "Ctx", "TupleCost") {
		return
	}
	sum := pass.Prog.chargeSummary()
	// Every Volcano Operator interface in reach: the row executor and the
	// vectorized executor each declare one (with different Next
	// signatures), and a mixed-mode package delegates through either.
	var operators []*types.Interface
	for _, tn := range reachableTypes(pass, "Operator") {
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			operators = append(operators, iface)
		}
	}
	for _, file := range pass.Pkg.Files {
		for _, fs := range funcScopes(file) {
			checkPollScope(pass, sum, fs, operators)
		}
	}
}

// checkPollScope checks the sort comparators and the tuple/batch loops of
// one function scope.
func checkPollScope(pass *Pass, sum *summary, fs funcScope, operators []*types.Interface) {
	// batchVars are the variables assigned from a NextBatch call: row
	// slices bounded by one batch.
	batchVars := map[types.Object]bool{}
	inspectShallow(fs.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkSortComparator(pass, sum, n)
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				break
			}
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && calleeName(call) == "NextBatch" {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						batchVars[pass.Pkg.Info.ObjectOf(id)] = true
					}
				}
			}
		}
		return true
	})
	loops := scopeLoops(fs.body)
	if len(loops) == 0 {
		return
	}
	g := pass.Prog.cfgOf(fs.body)
	delegates := func(st ast.Stmt) bool {
		delegated, _ := pullCalls(pass, stmtEvalNode(st), operators)
		return delegated
	}
	checkpoint := func(st ast.Stmt) bool {
		return sum.stmtFacts(pass.Pkg, st).polls || delegates(st)
	}
	mustCheckpoint := func(st ast.Stmt) bool {
		return sum.stmtMustPolls(pass.Pkg, st) || delegates(st)
	}
	for _, loop := range loops {
		head := g.byStmt[loop]
		_, cursor := pullCalls(pass, loop, operators)
		rng, isRange := loop.(*ast.RangeStmt)
		if !cursor && !(isRange && typeName(elemOf(pass.TypeOf(rng.X))) == "Row") {
			continue
		}
		if head.matches(checkpoint) || !iterationCompletes(g, loop, nil, checkpoint) {
			continue
		}
		if !cursor && batchBounded(pass, rng.X, batchVars) {
			// The loop is at most one batch long, so a checkpoint once
			// per enclosing iteration (or call) bounds the uncancellable
			// stretch to that batch.
			if !guaranteedFromAny(loopAnchors(g, loops, loop), head, mustCheckpoint) {
				pass.Reportf(loop.Pos(),
					"batch loop never polls cancellation: charge Ctx.TupleCost or Ctx.Poll once per batch in the enclosing scope, or waive with //lint:nopoll")
			}
			continue
		}
		pass.Reportf(loop.Pos(),
			"tuple loop never polls cancellation: call Ctx.TupleCost (charged) or Ctx.Poll (free) per tuple, or waive a bounded loop with //lint:nopoll")
	}
}

// batchBounded reports whether the ranged rows are at most one batch or
// chunk long: a sub-slice with an explicit upper bound (rows[lo:hi]), a
// variable assigned from a NextBatch call, or a field of a Batch.
func batchBounded(pass *Pass, x ast.Expr, batchVars map[types.Object]bool) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.SliceExpr:
		return x.High != nil
	case *ast.Ident:
		return batchVars[pass.Pkg.Info.ObjectOf(x)]
	case *ast.SelectorExpr:
		return typeName(pass.TypeOf(x.X)) == "Batch"
	}
	return false
}

// pullCalls scans a fragment for iterator advances — calls to Next, Valid
// or NextBatch — and reports whether any is delegated (the receiver is an
// Operator, whose Next polls) and whether any drives a raw cursor (storage
// scanner, btree iterator, batch scanner: nobody polls for those). Loops
// and function literals nested inside the fragment are their own scopes
// and are not entered.
func pullCalls(pass *Pass, root ast.Node, operators []*types.Interface) (delegated, cursor bool) {
	if root == nil {
		return false, false
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return n == root
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := sel.Sel.Name; name != "Next" && name != "Valid" && name != "NextBatch" {
				return true
			}
			if recv := pass.TypeOf(sel.X); recv != nil {
				if implementsAny(recv, operators) {
					delegated = true
				} else {
					cursor = true
				}
			}
		}
		return true
	})
	return delegated, cursor
}

// implementsAny reports whether t (or *t) satisfies one of the interfaces.
func implementsAny(t types.Type, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		if types.Implements(t, iface) {
			return true
		}
		if _, isPtr := t.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// elemOf returns the element type of a slice or array (nil otherwise).
func elemOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	}
	return nil
}

// checkSortComparator flags sort.Slice/SliceStable/Sort/Stable calls whose
// comparator literal contains no checkpoint, by the summary's definition
// of one.
func checkSortComparator(pass *Pass, sum *summary, call *ast.CallExpr) {
	fn, ok := calleeObject(pass.Pkg, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
		return
	}
	switch fn.Name() {
	case "Slice", "SliceStable", "Sort", "Stable":
	default:
		return
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok && !sum.nodeFacts(pass.Pkg, lit.Body).polls {
			pass.Reportf(call.Pos(),
				"sort comparator never polls cancellation: a large sort cannot be timed out; call Ctx.Poll in the less func or waive with //lint:nopoll")
		}
	}
}
