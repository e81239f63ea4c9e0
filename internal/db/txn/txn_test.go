package txn

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestVisibilityTable(t *testing.T) {
	const (
		idA = TxnIDBase + 7
		idB = TxnIDBase + 9
	)
	cases := []struct {
		name       string
		snap       Snap
		begin, end uint64
		want       bool
	}{
		{"bulk-load visible to zero snapshot", Snap{}, 0, Infinity, true},
		{"committed at horizon", Snap{TS: 5}, 5, Infinity, true},
		{"committed after horizon", Snap{TS: 4}, 5, Infinity, false},
		{"deleted before horizon", Snap{TS: 5}, 1, 5, false},
		{"deleted after horizon", Snap{TS: 4}, 1, 5, true},
		{"own uncommitted insert", Snap{TS: 4, ID: idA}, idA, Infinity, true},
		{"foreign uncommitted insert", Snap{TS: 4, ID: idA}, idB, Infinity, false},
		{"foreign uncommitted insert, autocommit reader", Snap{TS: 4}, idB, Infinity, false},
		{"own delete hides version", Snap{TS: 4, ID: idA}, 1, idA, false},
		{"foreign uncommitted delete still visible", Snap{TS: 4, ID: idA}, 1, idB, true},
		{"aborted version", Snap{TS: 4}, Aborted, Infinity, false},
		{"aborted version, latest reader", Latest(), Aborted, Infinity, false},
		{"latest sees any committed", Latest(), 1 << 40, Infinity, true},
		{"latest rejects uncommitted", Latest(), idA, Infinity, false},
	}
	for _, c := range cases {
		if got := c.snap.Visible(c.begin, c.end); got != c.want {
			t.Errorf("%s: Visible(%#x,%#x) with snap %+v = %v, want %v",
				c.name, c.begin, c.end, c.snap, got, c.want)
		}
	}
}

// fakeRecord stamps a begin field like a storage-layer insert record.
type fakeRecord struct {
	begin   atomic.Uint64
	aborted atomic.Bool
}

func (r *fakeRecord) Commit(ts uint64) { r.begin.Store(ts) }
func (r *fakeRecord) Abort()           { r.aborted.Store(true); r.begin.Store(Aborted) }

func TestCommitPublishLast(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	rec := &fakeRecord{}
	rec.begin.Store(tx.ID())
	tx.Log(rec)

	if m.Horizon() != 0 {
		t.Fatalf("horizon before commit = %d, want 0", m.Horizon())
	}
	ts, err := m.Commit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if ts != 1 || m.Horizon() != 1 {
		t.Fatalf("commit ts = %d horizon = %d, want 1/1", ts, m.Horizon())
	}
	if got := rec.begin.Load(); got != 1 {
		t.Fatalf("record stamped with %d, want 1", got)
	}
	if _, err := m.Commit(tx); err != ErrNotActive {
		t.Fatalf("double commit err = %v, want ErrNotActive", err)
	}
}

func TestReadOnlyCommitConsumesNoTimestamp(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if _, err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if m.Horizon() != 0 {
		t.Fatalf("read-only commit moved horizon to %d", m.Horizon())
	}
}

func TestAbortUndoesInReverse(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	a, b := &fakeRecord{}, &fakeRecord{}
	tx.Log(a)
	tx.Log(b)
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if !a.aborted.Load() || !b.aborted.Load() {
		t.Fatal("abort did not undo all records")
	}
	if tx.Status() != StatusAborted {
		t.Fatalf("status = %v, want aborted", tx.Status())
	}
	if err := m.Abort(tx); err != ErrNotActive {
		t.Fatalf("double abort err = %v, want ErrNotActive", err)
	}
	s := m.StatsSnapshot()
	if s.Active != 0 || s.Started != 1 || s.Aborted != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestConcurrentCommitAtomicity drives writers and readers together: a
// reader that snapshots the horizon must see either all or none of a
// transaction's stamps — never a partially committed pair.
func TestConcurrentCommitAtomicity(t *testing.T) {
	m := NewManager()
	const writers = 8
	const rounds = 200

	type pair struct{ a, b *fakeRecord }
	var mu sync.Mutex
	all := make([]*pair, 0, writers*rounds)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				p := &pair{&fakeRecord{}, &fakeRecord{}}
				p.a.begin.Store(tx.ID())
				p.b.begin.Store(tx.ID())
				tx.Log(p.a)
				tx.Log(p.b)
				mu.Lock()
				all = append(all, p)
				mu.Unlock()
				if _, err := m.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := m.Pin()
			mu.Lock()
			pairs := append([]*pair(nil), all...)
			mu.Unlock()
			for _, p := range pairs {
				av := snap.Visible(p.a.begin.Load(), Infinity)
				bv := snap.Visible(p.b.begin.Load(), Infinity)
				if av != bv {
					t.Errorf("torn commit: a visible=%v b visible=%v", av, bv)
					return
				}
			}
			m.Unpin(snap)
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()

	s := m.StatsSnapshot()
	if s.Committed != writers*rounds || s.Active != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if m.Horizon() != writers*rounds {
		t.Fatalf("horizon = %d, want %d", m.Horizon(), writers*rounds)
	}
}
