package lint

import (
	"go/ast"
	"go/types"
)

// This file computes the chargeflow engine's interprocedural summary: for
// every function declared in the module, whether calling it may charge the
// meter (advance PMU counters through the memory hierarchy, directly or
// through a charge function), may dispatch per-tuple cost (Ctx.TupleCost transitively,
// which both charges and polls), and may poll cancellation. Helpers that
// charge on behalf of callers — vec.Metered sections, Ctx.PollEvery,
// Device.ChargeChain — therefore propagate to the loops that call them,
// which is what lifts chargepath from per-function AST matching to a real
// dataflow analysis.
//
// Resolution is intentionally conservative: only statically-resolved callees
// (package functions and methods found through go/types object identity)
// propagate. Interface calls resolve to nothing — an interface method call
// is never assumed to charge, so delegating work through an interface does
// not silently satisfy a charging obligation. (Loops that pull through the
// executor Operator interfaces are handled by the analyzers' delegation
// rules instead.)

// chargeFacts is one function's summary bits. The may-facts answer "could
// a call to this function charge/dispatch/poll"; the must-facts answer the
// stronger "does every terminating path through this function
// charge/dispatch", which the chargepath analyzer needs to accept a helper
// call as satisfying a loop's charging obligation.
type chargeFacts struct {
	charges    bool // may advance hierarchy counters (or the machine clock: AddIdle)
	dispatches bool // may call Ctx.TupleCost (charged per-tuple dispatch)
	polls      bool // may check cancellation (Poll / PollEvery / TupleCost)

	mustCharges    bool // every path entry->exit charges
	mustDispatches bool // every path entry->exit dispatches
}

// summary maps declared functions (their types.Object) to facts.
type summary struct {
	facts map[types.Object]*chargeFacts
}

// directFacts is the single definition of what a call contributes by its
// callee alone, before any summary: a method of the simulated machine, of
// the executor context or of the charge sink, identified by the named type
// that declares it — so atomic.Uint64.Store or a btree's Load are not
// charges, whatever they are called. The hierarchy and machine primitives
// charge; Ctx.Poll and PollEvery are the free cancellation checkpoints;
// Ctx.TupleCost, and Sink.Tuples which stands for it in the shared charge
// functions, are dispatch + charge + checkpoint in one call. Everything
// else — storage.ChargeChain, exec.ChargeTuples, vec.ChargeDispatch — is a
// declared function whose own body proves what it does, and is learned
// through the summary. Every analyzer that asks "does this poll" or "does
// this charge" asks the summary, which starts from here.
func directFacts(pkg *Package, call *ast.CallExpr) chargeFacts {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return chargeFacts{}
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return chargeFacts{}
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return chargeFacts{}
	}
	switch typeName(recv.Type()) {
	case "Hierarchy":
		switch fn.Name() {
		case "Load", "Store", "LoadRepeat", "StoreRepeat", "LoadRange", "StoreRange", "Exec":
			return chargeFacts{charges: true}
		}
	case "Machine":
		if fn.Name() == "AddIdle" {
			return chargeFacts{charges: true}
		}
	case "Ctx":
		switch fn.Name() {
		case "EvalCost", "EmitRow", "Compute":
			return chargeFacts{charges: true}
		case "Poll", "PollEvery":
			return chargeFacts{polls: true}
		case "TupleCost":
			return chargeFacts{charges: true, dispatches: true, polls: true}
		}
	case "Sink":
		switch fn.Name() {
		case "Evals", "Emits", "Loads", "Stores", "Stream", "Random", "Adds", "Others":
			return chargeFacts{charges: true}
		case "Tuples":
			return chargeFacts{charges: true, dispatches: true, polls: true}
		}
	}
	return chargeFacts{}
}

// merge ors the may-facts of o into f and reports whether f changed.
func (f *chargeFacts) merge(o chargeFacts) bool {
	before := *f
	f.charges = f.charges || o.charges
	f.dispatches = f.dispatches || o.dispatches
	f.polls = f.polls || o.polls
	return *f != before
}

// buildSummary computes the fixed point of the may-charge/may-dispatch/
// may-poll facts over every function declared in the program's module
// packages. The iteration is a simple worklist over a static call graph;
// with monotone boolean facts it converges in at most a few passes.
func buildSummary(prog *Program) *summary {
	s := &summary{facts: make(map[types.Object]*chargeFacts)}

	// callees[f] lists the declared functions f statically calls.
	callees := make(map[types.Object][]types.Object)
	// decls maps objects back to their bodies for the direct-fact scan.
	type declFn struct {
		pkg  *Package
		body *ast.BlockStmt
	}
	decls := make(map[types.Object]declFn)

	for _, pkg := range prog.all {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				decls[obj] = declFn{pkg: pkg, body: fd.Body}
				s.facts[obj] = &chargeFacts{}
			}
		}
	}

	// Direct facts + static call edges. Closures count toward their
	// enclosing declaration: a charge inside a func literal still happens
	// when the surrounding code runs it, and treating it as part of the
	// declaration errs toward "may charge", which is the safe direction
	// for a may-analysis.
	for obj, fn := range decls {
		f := s.facts[obj]
		ast.Inspect(fn.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f.merge(directFacts(fn.pkg, call))
			if callee := calleeObject(fn.pkg, call); callee != nil {
				if _, declared := decls[callee]; declared {
					callees[obj] = append(callees[obj], callee)
				}
			}
			return true
		})
	}

	// Fixed point: propagate facts callee -> caller.
	for changed := true; changed; {
		changed = false
		for obj, cs := range callees {
			f := s.facts[obj]
			for _, c := range cs {
				if f.merge(*s.facts[c]) {
					changed = true
				}
			}
		}
	}

	// Must fixed point: a function must-charge (must-dispatch) when every
	// entry->exit path in its CFG passes a statement that directly charges
	// (dispatches) or calls a must-charging (must-dispatching) callee.
	// Facts only flip false->true, so iterating guaranteedOn to a fixed
	// point terminates; the may-facts gate skips functions that cannot
	// possibly acquire the must-fact.
	for changed := true; changed; {
		changed = false
		for obj, fn := range decls {
			f := s.facts[obj]
			pkg := fn.pkg
			var g *cfg
			if f.charges && !f.mustCharges {
				g = prog.cfgOf(fn.body)
				if guaranteedOn(g.entry, g.exit, func(st ast.Stmt) bool {
					return s.stmtMustCharges(pkg, st)
				}) {
					f.mustCharges, changed = true, true
				}
			}
			if f.dispatches && !f.mustDispatches {
				if g == nil {
					g = prog.cfgOf(fn.body)
				}
				if guaranteedOn(g.entry, g.exit, func(st ast.Stmt) bool {
					return s.stmtMustDispatches(pkg, st)
				}) {
					f.mustDispatches, changed = true, true
				}
			}
		}
	}
	return s
}

// stmtMustCharges reports whether executing this statement is guaranteed
// to charge the meter: it lexically contains a direct charging primitive
// call or a call to a must-charging declared function. (Calls inside
// function literals count — the Profile(func(){...}) shapes in this
// codebase run their literal synchronously.)
func (s *summary) stmtMustCharges(pkg *Package, st ast.Stmt) bool {
	return s.stmtMust(pkg, st, func(direct chargeFacts, f *chargeFacts) bool {
		return direct.charges || (f != nil && f.mustCharges)
	})
}

// stmtMustDispatches is stmtMustCharges for the per-batch dispatch fact
// (Ctx.TupleCost transitively on every path).
func (s *summary) stmtMustDispatches(pkg *Package, st ast.Stmt) bool {
	return s.stmtMust(pkg, st, func(direct chargeFacts, f *chargeFacts) bool {
		return direct.dispatches || (f != nil && f.mustDispatches)
	})
}

// stmtMustPolls reports whether executing this statement is guaranteed to
// reach a cancellation checkpoint: a direct Poll/PollEvery/TupleCost, or a
// callee that dispatches (TupleCost polls) on every path.
func (s *summary) stmtMustPolls(pkg *Package, st ast.Stmt) bool {
	return s.stmtMust(pkg, st, func(direct chargeFacts, f *chargeFacts) bool {
		return direct.polls || (f != nil && f.mustDispatches)
	})
}

func (s *summary) stmtMust(pkg *Package, st ast.Stmt, hit func(chargeFacts, *chargeFacts) bool) bool {
	return anyCall(stmtEvalNode(st), func(call *ast.CallExpr) bool {
		return hit(directFacts(pkg, call), s.facts[calleeObject(pkg, call)])
	})
}

// stmtEvalNode returns the AST fragment a CFG node for this statement
// actually evaluates: compound statements (if/for/range/switch/select) are
// represented in the CFG by their condition/tag alone — their nested
// statements have their own nodes — so fact queries must not descend into
// them, or a conditional charge inside a branch would look unconditional.
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

// calleeObject resolves a call expression to the types.Object of its callee
// when it is a statically-known function or method of this module; nil for
// interface calls, builtins, and function values.
func calleeObject(pkg *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			// Method call: concrete receivers resolve to the declaration;
			// interface receivers resolve to the interface method, which
			// has no body in decls and therefore propagates nothing.
			return sel.Obj()
		}
		// Package-qualified call (pkg.Fn).
		return pkg.Info.Uses[fun.Sel]
	}
	return nil
}

// callFacts returns the may-facts a call expression contributes at its call
// site: direct primitive names count immediately, declared callees
// contribute their fixed-point facts.
func (s *summary) callFacts(pkg *Package, call *ast.CallExpr) chargeFacts {
	out := directFacts(pkg, call)
	if f := s.facts[calleeObject(pkg, call)]; f != nil {
		out.merge(*f)
	}
	return out
}

// nodeFacts folds callFacts over every call lexically inside n, function
// literals included: a literal handed to a call usually runs synchronously
// (the Profile(func(){...}) shapes in this codebase), and a sort comparator
// literal is asked about as a node of its own.
func (s *summary) nodeFacts(pkg *Package, n ast.Node) chargeFacts {
	var out chargeFacts
	if n == nil {
		return out
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			out.merge(s.callFacts(pkg, call))
		}
		return true
	})
	return out
}

// stmtFacts is nodeFacts over the fragment the statement's CFG node
// evaluates.
func (s *summary) stmtFacts(pkg *Package, st ast.Stmt) chargeFacts {
	return s.nodeFacts(pkg, stmtEvalNode(st))
}
