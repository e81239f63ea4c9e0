package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// AnalyzerLockOrder enforces the documented locking model of the engine
// stack (see the internal/db/engine package comment): the engine's short
// catalog lock is always taken before the transaction manager's commit
// lock, which is always taken before the storage layer's row lock, which
// is always taken before anything in the btree layer — engine → txn →
// storage → btree. It additionally flags three shapes that have bitten
// concurrent Go systems forever and that `make race` can only catch when a
// test happens to interleave badly:
//
//   - copying a value whose type contains a sync.Mutex/RWMutex/Once/
//     WaitGroup (the copy silently forks the lock state);
//   - blocking on a channel operation while holding a lock (the scheduler
//     and store-provision paths must release before waiting, or a slow
//     peer deadlocks every other session);
//   - reintroducing the retired statement-scoped store lock: an exported
//     Lock/RLock/Unlock/RUnlock wrapper method on an engine-package type.
//     That pattern (Shared.RLock held for a whole statement) serialized
//     readers against writers and was replaced by MVCC snapshots; new
//     code must not grow it back.
//
// The analysis is per-function and linear: function literals are separate
// scopes (they usually run on other goroutines), an Unlock anywhere clears
// the held state for the rest of the scan (under-reporting is the right
// bias for a required CI gate), and a deferred Unlock holds to scope end.
var AnalyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "engine→txn→storage→btree lock ordering, mutex copies, locks held across channel ops, retired store-lock wrappers",
	Run:  runLockOrder,
}

// lockLevels orders the layers: lower acquires first. Classification is by
// the final import-path element of the package declaring the lock's owner
// type, so the rule applies to the real engine/txn/storage/btree packages
// and to fixture packages of the same names alike.
var lockLevels = map[string]int{
	"engine":  0,
	"txn":     1,
	"storage": 2,
	"btree":   3,
}

// heldLock is one acquisition the linear scan still considers live.
type heldLock struct {
	expr     string // rendered base expression, for release matching
	pkgBase  string // declaring package's final path element
	level    int    // lockLevels rank, -1 when unordered
	deferred bool   // released only at scope end
}

func runLockOrder(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, fn := range funcScopes(file) {
			scanLockScope(pass, fn)
		}
		checkMutexCopies(pass, file)
		checkStoreLockWrappers(pass, file)
	}
}

// checkStoreLockWrappers flags exported Lock/RLock/Unlock/RUnlock methods
// declared on engine-package types — the retired Shared.mu pattern, where
// every statement held a store-scoped RWMutex for its whole execution.
// MVCC snapshots replaced it; an exported lock wrapper on the engine layer
// means some caller is again serializing statements on the store.
func checkStoreLockWrappers(pass *Pass, file *ast.File) {
	if path.Base(pass.Pkg.Path) != "engine" {
		return
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || !fd.Name.IsExported() {
			continue
		}
		if !isLockName(fd.Name.Name) && !isUnlockName(fd.Name.Name) {
			continue
		}
		pass.Reportf(fd.Name.Pos(),
			"exported %s method on an engine type resurrects the retired statement-scoped store lock; statements read MVCC snapshots instead",
			fd.Name.Name)
	}
}

// scanLockScope walks one function body in source order tracking held
// locks, reporting order inversions and channel operations under a lock.
func scanLockScope(pass *Pass, fn funcScope) {
	var held []heldLock
	release := func(expr string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].expr == expr && !held[i].deferred {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
		// Unlock with no matching tracked Lock (e.g. branch-local
		// lock/unlock pairs): be conservative and clear non-deferred
		// state so later channel ops are not falsely flagged.
		for i := len(held) - 1; i >= 0; i-- {
			if !held[i].deferred {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	reportChan := func(n ast.Node, what string) {
		if len(held) == 0 {
			return
		}
		pass.Reportf(n.Pos(), "%s while holding %s lock; release before blocking on a channel",
			what, held[len(held)-1].expr)
	}
	inspectShallow(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if base, name, ok := lockCall(pass, n.Call); ok && isUnlockName(name) {
				for i := range held {
					if held[i].expr == base {
						held[i].deferred = true
					}
				}
			}
			// Don't descend: the deferred call runs at scope end.
			return false
		case *ast.CallExpr:
			base, name, ok := lockCall(pass, n)
			if !ok {
				return true
			}
			if isUnlockName(name) {
				release(base)
				return true
			}
			lvl, pkgBase := lockLevel(pass, n)
			for _, h := range held {
				if h.level >= 0 && lvl >= 0 && h.level > lvl {
					pass.Reportf(n.Pos(),
						"acquires %s lock (%s) while holding %s lock (%s); documented order is engine → txn → storage → btree",
						pkgBase, base, h.pkgBase, h.expr)
				}
			}
			held = append(held, heldLock{expr: base, pkgBase: pkgBase, level: lvl})
			return true
		case *ast.SendStmt:
			reportChan(n, "channel send")
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportChan(n, "channel receive")
			}
			return true
		case *ast.SelectStmt:
			reportChan(n, "select")
			return true
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					reportChan(n, "range over channel")
				}
			}
			return true
		}
		return true
	})
}

// lockNames / unlock classification.
func isLockName(name string) bool {
	switch name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return true
	}
	return false
}

func isUnlockName(name string) bool {
	switch name {
	case "Unlock", "RUnlock":
		return true
	}
	return false
}

// lockCall decides whether the call is a mutex (un)lock and returns the
// rendered base expression owning the lock plus the method name. It
// recognizes direct sync.Mutex/RWMutex method calls (x.mu.Lock()) and
// wrapper methods named exactly Lock/RLock/Unlock/RUnlock on a named type
// (engine.Shared.RLock style).
func lockCall(pass *Pass, call *ast.CallExpr) (base string, name string, ok bool) {
	sel, selOk := call.Fun.(*ast.SelectorExpr)
	if !selOk {
		return "", "", false
	}
	name = sel.Sel.Name
	if !isLockName(name) && !isUnlockName(name) {
		return "", "", false
	}
	recv := ast.Unparen(sel.X)
	if isSyncLocker(pass.TypeOf(recv)) {
		// x.mu.Lock(): the owner is the struct holding the mutex field.
		if inner, ok := recv.(*ast.SelectorExpr); ok {
			return exprString(inner.X), name, true
		}
		return exprString(recv), name, true
	}
	// Wrapper method: receiver must be a named (possibly pointer) type
	// declared in some package — sync.Cond etc. excluded above.
	if namedOf(pass.TypeOf(recv)) != nil {
		return exprString(recv), name, true
	}
	return "", "", false
}

// lockLevel ranks the acquisition in the engine→storage→btree order.
func lockLevel(pass *Pass, call *ast.CallExpr) (int, string) {
	sel := call.Fun.(*ast.SelectorExpr)
	recv := ast.Unparen(sel.X)
	t := pass.TypeOf(recv)
	if isSyncLocker(t) {
		if inner, ok := recv.(*ast.SelectorExpr); ok {
			t = pass.TypeOf(inner.X)
		}
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return -1, "unordered"
	}
	base := path.Base(named.Obj().Pkg().Path())
	if lvl, ok := lockLevels[base]; ok {
		return lvl, base
	}
	return -1, base
}

// isSyncLocker reports whether t is sync.Mutex or sync.RWMutex (by value
// or pointer).
func isSyncLocker(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

// checkMutexCopies flags copies of lock-bearing values: assignment from an
// existing location (identifier, selector, deref, index), passing such a
// value as a call argument, or ranging over a slice/array of them. Fresh
// construction (composite literals, call results) is fine — the lock state
// is zero.
func checkMutexCopies(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				checkCopyExpr(pass, rhs)
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				checkCopyExpr(pass, v)
			}
		case *ast.CallExpr:
			if _, _, isLock := lockCall(pass, n); isLock {
				return true
			}
			for _, arg := range n.Args {
				checkCopyExpr(pass, arg)
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				t := pass.TypeOf(n.Value)
				if t != nil && containsLock(t, nil) {
					pass.Reportf(n.Value.Pos(), "range copies %s values containing a mutex; iterate by index or store pointers", t.String())
				}
			}
		}
		return true
	})
}

// checkCopyExpr reports when the expression copies a lock-bearing value
// out of an existing location.
func checkCopyExpr(pass *Pass, e ast.Expr) {
	e = ast.Unparen(e)
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return
	}
	t := pass.TypeOf(e)
	if t == nil {
		return
	}
	if _, isPtr := t.(*types.Pointer); isPtr {
		return
	}
	if containsLock(t, nil) {
		pass.Reportf(e.Pos(), "copies %s which contains a mutex; pass a pointer instead", t.String())
	}
}

// containsLock reports whether the type transitively contains a sync lock
// (not through pointers).
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	if named := namedOf(t); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
		switch named.Obj().Name() {
		case "Mutex", "RWMutex", "Once", "WaitGroup", "Cond", "Pool", "Map":
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}
