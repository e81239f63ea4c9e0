// Package app exercises the lockorder analyzer: ordering inversions and
// locks held across channel operations, next to the accepted shapes of
// each. The mutex value copies at the end are go vet's, not lockorder's.
package app

import (
	"fixture.example/lockorder/btree"
	"fixture.example/lockorder/engine"
	"fixture.example/lockorder/storage"
	"fixture.example/lockorder/txn"
)

type system struct {
	store *engine.Store
	txns  *txn.Manager
	rows  *storage.Rows
	tree  *btree.Tree
	work  chan int
}

// goodOrder follows the documented engine → txn → storage → btree order.
func (s *system) goodOrder() {
	s.store.Mu.Lock()
	defer s.store.Mu.Unlock()
	s.txns.Mu.Lock()
	defer s.txns.Mu.Unlock()
	s.rows.Mu.Lock()
	defer s.rows.Mu.Unlock()
	s.tree.Mu.Lock()
	defer s.tree.Mu.Unlock()
}

// badOrder acquires the engine lock while already inside the btree layer.
func (s *system) badOrder() {
	s.tree.Mu.Lock()
	s.store.Mu.Lock()
	s.store.Mu.Unlock()
	s.tree.Mu.Unlock()
}

// badCommitOrder takes the transaction manager's commit lock while already
// holding a storage row lock — a commit publishing versions must never
// wait on a row lock held by a statement that is itself waiting to commit.
func (s *system) badCommitOrder() {
	s.rows.Mu.Lock()
	s.txns.Mu.Lock()
	s.txns.Mu.Unlock()
	s.rows.Mu.Unlock()
}

// publishLocked blocks on a channel send while holding the row lock.
func (s *system) publishLocked(v int) {
	s.rows.Mu.Lock()
	s.work <- v
	s.rows.Mu.Unlock()
}

// publish releases before blocking: the accepted shape.
func (s *system) publish(v int) {
	s.rows.Mu.Lock()
	s.rows.Mu.Unlock()
	s.work <- v
}

// publishSometimes releases on one branch only: the other path still holds
// the row lock at the send.
func (s *system) publishSometimes(v int, early bool) {
	s.rows.Mu.Lock()
	if early {
		s.rows.Mu.Unlock()
	}
	s.work <- v
	if !early {
		s.rows.Mu.Unlock()
	}
}

// publishUnlocked defers the release only on the branch that returns; the
// path to the send has already unlocked.
func (s *system) publishUnlocked(v int, early bool) {
	s.rows.Mu.Lock()
	if early {
		defer s.rows.Mu.Unlock()
		return
	}
	s.rows.Mu.Unlock()
	s.work <- v
}

// snapshot copies a lock-bearing value, silently forking its lock state.
func snapshot(t *btree.Tree) btree.Tree {
	cp := *t
	return cp
}

// scanAll ranges over lock-bearing values, copying each element.
func scanAll(trees []btree.Tree) int {
	n := 0
	for _, t := range trees {
		_ = t
		n++
	}
	return n
}
