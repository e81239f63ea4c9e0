package lint

import (
	"go/ast"
	"go/types"
	"path"
)

// AnalyzerChargePath proves energy-attribution soundness over the executor:
// every loop that advances tuples, batches, pages or version chains in the
// hot packages must charge the energy meter on every iteration path — the
// invariant the paper's micro-measurements depend on, since an uncharged
// loop silently attributes its traffic to the wrong component (or to
// nothing). The analysis runs on the chargeflow engine (cfg.go,
// dataflow.go, summary.go): statement-level CFGs plus an interprocedural
// may/must charge summary, so helpers that charge on behalf of callers
// (vec.Metered sections, the exec/vec charge functions, Device.Charge*)
// satisfy the obligation of the loops that call them.
//
// Three rules, in decreasing specificity:
//
//  1. Pull loops (the body pulls a batch via a Next/NextBatch call): no
//     iteration that consumes a pulled batch may complete without touching
//     the meter (a charge or a cancellation poll). This catches the
//     classic "empty batch: continue" fast path skipping Poll.
//
//  2. Element loops (classified by what they iterate: element slices,
//     bounded windows, Len/Cap-bounded counters, batch/vector payloads,
//     version-chain hops): some charge must cover each iteration. The
//     charge may be in the body (may-charge on every completing path, or a
//     touch on every path plus a lexical charge), guaranteed on every path
//     from an enclosing anchor to the loop (batch-granular charging before
//     a per-element loop), or guaranteed between loop exit and the end of
//     the enclosing iteration (charging after the loop, chargeLoop
//     style).
//
//  3. Vectorized dispatch (package vec only): element loops must also be
//     covered by a per-batch dispatch charge (Ctx.TupleCost) — in the
//     body, dominating the loop from an anchor, or guaranteed after it
//     before the enclosing iteration completes. Payload charges alone do
//     not pay the interpretation overhead the model attributes per batch.
//
// Plus one boundary rule: a Next method returning (*Batch, error) that
// emits via element loops without pulling from a child must poll
// cancellation directly (Ctx.Poll/PollEvery) — emit-only operators are the
// top of the pull chain and nobody polls on their behalf.
//
// Setup-only loops (allocation, precomputation whose cost is charged
// elsewhere) are waived with //lint:nocharge on or above the loop.
var AnalyzerChargePath = &Analyzer{
	Name:      "chargepath",
	Doc:       "executor loops advancing tuples/batches/pages/version chains must charge the energy meter on every path",
	WaiverKey: "nocharge",
	Run:       runChargePath,
}

// chargePathPackages are the import-path basenames under analysis.
var chargePathPackages = map[string]bool{
	"exec": true, "vec": true, "btree": true, "storage": true, "txn": true,
}

// elemTypeNames are the named types whose slices/values mark a loop as
// advancing elements of the data plane.
var elemTypeNames = map[string]bool{
	"Row": true, "Version": true, "Record": true,
	"Batch": true, "Vector": true, "Page": true,
}

func runChargePath(p *Pass) {
	base := path.Base(p.Pkg.Path)
	if !chargePathPackages[base] {
		return
	}
	sum := p.Prog.chargeSummary()
	isVec := base == "vec"
	for _, f := range p.Pkg.Files {
		for _, fs := range funcScopes(f) {
			checkChargeScope(p, sum, fs, isVec)
		}
		if isVec {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					checkEmitBoundary(p, sum, fd)
				}
			}
		}
	}
}

// checkChargeScope applies the pull/element/dispatch rules to every loop in
// one function scope.
func checkChargeScope(p *Pass, sum *summary, fs funcScope, isVec bool) {
	loops := scopeLoops(fs.body)
	if len(loops) == 0 {
		return
	}
	g := p.Prog.cfgOf(fs.body)

	mayCharge := func(st ast.Stmt) bool { return sum.stmtFacts(p.Pkg, st).charges }
	touch := func(st ast.Stmt) bool {
		f := sum.stmtFacts(p.Pkg, st)
		return f.charges || f.polls
	}
	mustCharge := func(st ast.Stmt) bool { return sum.stmtMustCharges(p.Pkg, st) }
	mustDispatch := func(st ast.Stmt) bool { return sum.stmtMustDispatches(p.Pkg, st) }

	counts := countVarObjects(p, fs.body)

	for _, loop := range loops {
		// A charge after the loop counts up to where the enclosing iteration
		// ends: the innermost enclosing loop head, or scope exit.
		anchors := loopAnchors(g, loops, loop)
		iterEnd := map[*cnode]bool{anchors[0]: true, g.exit: true}
		loopHead := g.byStmt[loop]

		if pulls := pullStmts(p, g, loop); len(pulls) > 0 {
			// Rule 1: pull loops.
			pullPred := func(st ast.Stmt) bool { return pulls[st] }
			if iterationCompletes(g, loop, pullPred, touch) {
				p.Reportf(loop.Pos(),
					"%s: loop can pull a batch and complete the iteration without charging or polling the meter; charge or Poll on every path (or waive with //lint:nocharge)",
					fs.name)
			}
			continue
		}

		kind := classifyElemLoop(p, loop, counts)
		if kind == "" {
			continue
		}

		// Rule 2: some charge covers each iteration.
		chargeOK := !iterationCompletes(g, loop, nil, mayCharge) || // A: body charges on every completing path
			(!iterationCompletes(g, loop, nil, touch) && bodyHasStmt(g, loop, mayCharge)) || // B: touches on every path, charges somewhere
			guaranteedFromAny(anchors, loopHead, mustCharge) || // C: a charge dominates the loop from an anchor
			!avoidSearch(g.afterOf[loop], iterEnd, mustCharge) // C': guaranteed after the loop, before the enclosing iteration ends
		if !chargeOK {
			p.Reportf(loop.Pos(),
				"%s: %s can complete an iteration without charging the meter, and no charge is guaranteed before or after the loop (waive setup-only loops with //lint:nocharge)",
				fs.name, kind)
			continue
		}

		// Rule 3: vectorized loops also need the per-batch dispatch.
		if !isVec {
			continue
		}
		if !bodyHasStmt(g, loop, mustDispatch) && !guaranteedFromAny(anchors, loopHead, mustDispatch) &&
			avoidSearch(g.afterOf[loop], iterEnd, mustDispatch) {
			p.Reportf(loop.Pos(),
				"%s: %s has no per-batch dispatch charge: no Ctx.TupleCost in the body, dominating the loop, or guaranteed after it (waive with //lint:nocharge)",
				fs.name, kind)
		}
	}
}

// bodyHasStmt reports whether any statement inside the loop body satisfies
// the predicate.
func bodyHasStmt(g *cfg, loop ast.Stmt, pred stmtPred) bool {
	for n := range g.loopBodyNodes(loop) {
		if n.matches(pred) {
			return true
		}
	}
	return false
}

// pullStmts returns the loop-body statements that pull a batch from a child
// operator: a call to a method named Next/NextBatch whose first result is a
// *Batch or a []Row.
func pullStmts(p *Pass, g *cfg, loop ast.Stmt) map[ast.Stmt]bool {
	out := map[ast.Stmt]bool{}
	for n := range g.loopBodyNodes(loop) {
		if n.stmt == nil {
			continue
		}
		if stmtHasPull(p, n.stmt) {
			out[n.stmt] = true
		}
	}
	return out
}

func stmtHasPull(p *Pass, st ast.Stmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Next" && sel.Sel.Name != "NextBatch") {
			return true
		}
		if isBatchPull(p.TypeOf(call)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isBatchPull reports whether a call-result type delivers a batch of
// tuples: first result *Batch (any package's named Batch) or []Row.
func isBatchPull(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(0).Type()
	}
	if typeName(t) == "Batch" {
		return true
	}
	if named := namedOf(t); named != nil {
		t = named.Underlying()
	}
	return typeName(elemOf(t)) == "Row"
}

// namedElemType reports whether t (after stripping one pointer) is one of
// the data-plane element types.
func namedElemType(t types.Type) bool {
	return elemTypeNames[typeName(t)]
}

// elemSliceType reports whether t is a slice/array of data-plane elements.
func elemSliceType(t types.Type) bool {
	return namedElemType(elemOf(t))
}

// countVarObjects collects the variables in this scope assigned from an
// element count: x.Len() / x.Cap() on a Batch or Vector, or len() of an
// element slice. Loops bounded by these variables iterate per element.
func countVarObjects(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isCountCall(p, rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := p.Pkg.Info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isCountCall reports whether e is an element-count expression.
func isCountCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "len" && len(call.Args) == 1 {
			return elemSliceType(p.TypeOf(call.Args[0]))
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Len" || fun.Sel.Name == "Cap" {
			return namedElemType(p.TypeOf(fun.X))
		}
	}
	return false
}

// classifyElemLoop decides whether the loop advances data-plane elements
// and returns a short description for diagnostics ("" = not classified).
func classifyElemLoop(p *Pass, loop ast.Stmt, counts map[types.Object]bool) string {
	switch l := loop.(type) {
	case *ast.RangeStmt:
		if t := p.TypeOf(l.X); elemSliceType(t) {
			return "loop over " + types.TypeString(t, types.RelativeTo(p.Pkg.Types))
		}
		if se, ok := ast.Unparen(l.X).(*ast.SliceExpr); ok && se.Low != nil && se.High != nil {
			return "loop over window " + exprString(se.X) + "[lo:hi]"
		}
	case *ast.ForStmt:
		if l.Cond != nil && condBoundByCount(p, l.Cond, counts) {
			return "element-count bounded loop"
		}
	}
	// Body-shape triggers, shared by both loop forms.
	body := loopBody(loop)
	if body == nil {
		return ""
	}
	desc := ""
	inspectShallow(body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.IndexExpr:
			if elemSliceType(p.TypeOf(n.X)) {
				desc = "loop indexing " + exprString(n.X)
			}
		case ast.Expr:
			if namedElemType(p.TypeOf(n)) {
				desc = "loop touching batch/vector data"
			}
		case *ast.AssignStmt:
			if isChainHop(n) {
				desc = "version-chain walk"
			}
		}
		return true
	})
	return desc
}

func loopBody(loop ast.Stmt) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// condBoundByCount reports whether the loop condition is bounded by an
// element count: a count call inline, or a variable assigned from one.
func condBoundByCount(p *Pass, cond ast.Expr, counts map[types.Object]bool) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isCountCall(p, n) {
				found = true
				return false
			}
		case *ast.Ident:
			if obj := p.Pkg.Info.Uses[n]; obj != nil && counts[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isChainHop matches x = <selector/index path rooted at x> — walking a
// version chain or an intrusive list.
func isChainHop(as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	root := rootIdent(as.Rhs[0])
	if root == nil || root.Name != lhs.Name {
		return false
	}
	// Must actually traverse (not a self-assignment).
	_, isIdent := ast.Unparen(as.Rhs[0]).(*ast.Ident)
	return !isIdent
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// checkEmitBoundary enforces the boundary rule: an emit-only Next method
// (returns (*Batch, error), loops, never pulls from a child) must poll
// cancellation directly — it is the top of the pull chain.
func checkEmitBoundary(p *Pass, sum *summary, fd *ast.FuncDecl) {
	if fd.Recv == nil || fd.Body == nil || fd.Name.Name != "Next" {
		return
	}
	if fd.Type.Results == nil || len(fd.Type.Results.List) != 2 {
		return
	}
	if !isBatchPull(p.TypeOf(fd.Type.Results.List[0].Type)) {
		return
	}
	hasLoop, hasPull, hasPoll := false, false, false
	inspectShallow(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			hasLoop = true
		case ast.Stmt:
			if stmtHasPull(p, n) {
				hasPull = true
			}
		case *ast.CallExpr:
			// A free checkpoint by the summary's definition: polls without
			// being the charged dispatch.
			if f := sum.callFacts(p.Pkg, n); f.polls && !f.dispatches {
				hasPoll = true
			}
		}
		return true
	})
	if hasLoop && !hasPull && !hasPoll {
		p.Reportf(fd.Name.Pos(),
			"%s.Next emits batches without pulling from a child and never polls cancellation; call Ctx.Poll or Ctx.PollEvery at the emit boundary",
			recvTypeName(fd))
	}
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "?"
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return exprString(t)
}
