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
// storage → btree. It additionally flags two shapes that have bitten
// concurrent Go systems forever and that `make race` can only catch when a
// test happens to interleave badly:
//
//   - blocking on a channel operation while holding a lock (the scheduler
//     and store-provision paths must release before waiting, or a slow
//     peer deadlocks every other session);
//   - reintroducing the retired statement-scoped store lock: an exported
//     Lock/RLock/Unlock/RUnlock wrapper method on an engine-package type.
//     That pattern (Shared.RLock held for a whole statement) serialized
//     readers against writers and was replaced by MVCC snapshots; new
//     code must not grow it back.
//
// Copying a value that contains a lock is go vet's copylocks check.
//
// "Held" is a path question on the CFG engine: a lock is held at a
// statement when some path from its Lock reaches the statement without
// passing a non-deferred Unlock of the same base. Function literals are
// separate scopes (they usually run on other goroutines).
var AnalyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "engine→txn→storage→btree lock ordering, locks held across channel ops, retired store-lock wrappers",
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

func runLockOrder(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, fn := range funcScopes(file) {
			checkLockScope(pass, fn.body)
		}
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

// lockSite is one (un)lock call a CFG node evaluates.
type lockSite struct {
	node    *cnode
	call    *ast.CallExpr
	base    string // rendered base expression, for release matching
	pkgBase string // declaring package's final path element
	level   int    // lockLevels rank, -1 when unordered
}

// lockSites lists the lock (unlock false) or unlock (unlock true) calls the
// node evaluates. A deferred call runs at scope end, so a defer node has
// none.
func lockSites(pass *Pass, n *cnode, unlock bool) []lockSite {
	if _, deferred := n.stmt.(*ast.DeferStmt); deferred {
		return nil
	}
	var out []lockSite
	inspectShallow(stmtEvalNode(n.stmt), func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if base, name, ok := lockCall(pass, call); ok && isUnlockName(name) == unlock {
			level, pkgBase := lockLevel(pass, call)
			out = append(out, lockSite{n, call, base, pkgBase, level})
		}
		return true
	})
	return out
}

// checkLockScope reports, for one function body, the lower-layer
// acquisitions and the channel operations some path reaches while a lock
// is held.
func checkLockScope(pass *Pass, body *ast.BlockStmt) {
	if !anyCall(body, func(call *ast.CallExpr) bool {
		_, name, ok := lockCall(pass, call)
		return ok && isLockName(name)
	}) {
		return
	}
	g := pass.Prog.cfgOf(body)
	var locks []lockSite
	for _, n := range g.nodes {
		locks = append(locks, lockSites(pass, n, false)...)
	}
	held := func(l lockSite, at *cnode) bool {
		return avoidSearch(l.node, map[*cnode]bool{at: true}, func(st ast.Stmt) bool {
			for _, u := range lockSites(pass, g.byStmt[st], true) {
				if u.base == l.base {
					return true
				}
			}
			return false
		})
	}
	for _, b := range locks {
		for _, a := range locks {
			if b.level >= 0 && a.level > b.level && held(a, b.node) {
				pass.Reportf(b.call.Pos(),
					"acquires %s lock (%s) while holding %s lock (%s); documented order is engine → txn → storage → btree",
					b.pkgBase, b.base, a.pkgBase, a.base)
			}
		}
	}
	for _, n := range g.nodes {
		what := chanOp(pass, n.stmt)
		if what == "" {
			continue
		}
		// Name the innermost held lock: the last one taken in source order.
		var last *lockSite
		for i, l := range locks {
			if (last == nil || l.call.Pos() > last.call.Pos()) && held(l, n) {
				last = &locks[i]
			}
		}
		if last != nil {
			pass.Reportf(n.stmt.Pos(), "%s while holding %s lock; release before blocking on a channel", what, last.base)
		}
	}
}

// chanOp names the channel operation a CFG node's statement may block on,
// or returns "" when it has none.
func chanOp(pass *Pass, st ast.Stmt) string {
	switch st := st.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.SelectStmt:
		return "select"
	case *ast.RangeStmt:
		if _, isChan := pass.TypeOf(st.X).Underlying().(*types.Chan); isChan {
			return "range over channel"
		}
	}
	what := ""
	inspectShallow(stmtEvalNode(st), func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			what = "channel receive"
		}
		return what == ""
	})
	return what
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
