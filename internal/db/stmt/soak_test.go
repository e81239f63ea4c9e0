package stmt_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"energydb/internal/db/engine"
	"energydb/internal/db/stmt"
	"energydb/internal/tpch"
)

// hotOrderKeys draws n order keys of the loaded 10MB class, the txn-mixed
// benchmark's hot set.
func hotOrderKeys(n int) []int64 {
	d := tpch.Generate(tpch.Size10MB, 7421)
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = d.Orders[rng.Intn(len(d.Orders))][0].I
	}
	return keys
}

// writerTxn is the i-th transaction of the txn-mixed benchmark's writer: two
// keyed UPDATEs, or every fifth time an INSERT of a new order and the DELETE of
// the one inserted five transactions earlier.
func writerTxn(i int, hot []int64) []string {
	if i%5 == 4 {
		return []string{
			"BEGIN",
			fmt.Sprintf("INSERT INTO orders VALUES (%d, 0, 'O', 1.00, 2341, '5-LOW', 0)", 1_000_000+i),
			fmt.Sprintf("DELETE FROM orders WHERE o_orderkey = %d", 1_000_000+i-5),
			"COMMIT",
		}
	}
	return []string{
		"BEGIN",
		fmt.Sprintf("UPDATE orders SET o_totalprice = %d WHERE o_orderkey = %d", i, hot[i%len(hot)]),
		fmt.Sprintf("UPDATE nation SET n_regionkey = %d WHERE n_nationkey = 24", i),
		"COMMIT",
	}
}

func mustRun(t testing.TB, s *stmt.Session, texts ...string) {
	t.Helper()
	for _, text := range texts {
		st, err := stmt.Parse(text)
		if err == nil {
			_, err = s.Exec(st)
		}
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWriterSoak runs the benchmark writer's script for 100 000 transactions
// on one session and holds what it leaves behind to pinned figures: live heap
// per transaction, the length of the retained log, the length of a hot key's
// version chain (read off the reclamation counters: every superseded version
// but the newest per key must have been pruned) and the dead-row queue.
func TestWriterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000 transactions")
	}
	const (
		txns = 100_000
		// The first transactions grow what then stays: each hot key's second
		// version, the log up to its first checkpoint, slice capacities.
		warm = 5_000
		// maxBytesPerTxn: an inserted order leaves its slot pointer (8 B) and,
		// per 255 inserts, an emptied index leaf per index behind; measured
		// 11 B per transaction.
		maxBytesPerTxn = 32
		// maxLogRecords: a checkpoint interval of the shortest records there
		// are (storage's walCheckpointBytes / WALRecordHeader) and one
		// transaction more.
		maxLogRecords = 2*64<<10/24 + 8
	)
	// The profile the benchmark's server runs. The sink keeps nothing: a
	// kept record would be heap growth of the test's own.
	s := sessionOn(t, engine.PostgreSQL, func(stmt.Record) {})
	hot := hotOrderKeys(256)
	wal := s.Eng.WAL()
	orders := s.Eng.MustTable("orders").File.Data()

	var base uint64
	for i := 0; i < txns; i++ {
		if i == warm {
			base = liveHeap()
		}
		mustRun(t, s, writerTxn(i, hot)...)
		if n := wal.Retained(); n > maxLogRecords {
			t.Fatalf("transaction %d: log retains %d records, want at most %d", i, n, maxLogRecords)
		}
	}
	grown := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(s)
	perTxn := float64(grown) / (txns - warm)
	t.Logf("live heap grew %d B over %d transactions: %.1f B per transaction; %d log records retained, %d checkpoints",
		grown, txns-warm, perTxn, wal.Retained(), wal.Checkpoints.Load())
	if perTxn > maxBytesPerTxn {
		t.Errorf("live heap grows %.1f B per transaction, want at most %d", perTxn, maxBytesPerTxn)
	}

	r := orders.Reclaimed()
	updates := uint64(txns - txns/5)
	if kept := updates - r.VersionsPruned; kept > uint64(len(hot)) {
		t.Errorf("%d superseded versions of %d hot keys still linked: chains are not O(rows)", kept, len(hot))
	}
	if r.DeadRowsPending > 1 || r.DeadRowsReaped < txns/5-2 {
		t.Errorf("dead rows: %d reaped, %d pending after %d deletes", r.DeadRowsReaped, r.DeadRowsPending, txns/5-1)
	}
}
