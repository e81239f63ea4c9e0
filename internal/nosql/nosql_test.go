package nosql

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/memsim"
)

func newM(t *testing.T) *cpusim.Machine {
	t.Helper()
	return cpusim.NewMachine(cpusim.IntelI7_4790())
}

func TestHashKVRoundTrip(t *testing.T) {
	kv := NewHashKV(newM(t), 1000, 100)
	for i := 0; i < 1000; i++ {
		if err := kv.Put(Key(i), Value(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if kv.Len() != 1000 {
		t.Fatalf("len = %d", kv.Len())
	}
	for i := 0; i < 1000; i += 37 {
		v, ok := kv.Get(Key(i))
		if !ok || v != Value(i, 100) {
			t.Fatalf("Get(%s) = %q, %v", Key(i), v, ok)
		}
	}
	if _, ok := kv.Get("missing"); ok {
		t.Fatal("missing key found")
	}
	// Overwrite keeps the newest value.
	if err := kv.Put(Key(5), "newval"); err != nil {
		t.Fatal(err)
	}
	if v, _ := kv.Get(Key(5)); v != "newval" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if kv.Len() != 1000 {
		t.Fatalf("overwrite changed len to %d", kv.Len())
	}
}

func TestLSMKVRoundTripAcrossFlushes(t *testing.T) {
	m := newM(t)
	kv := NewLSMKV(m, 100, 1000, 64) // flush every 100 entries
	for i := 0; i < 1000; i++ {
		kv.Put(Key(i), Value(i, 64))
	}
	if kv.Runs() < 9 {
		t.Fatalf("runs = %d, want several flushes", kv.Runs())
	}
	for i := 0; i < 1000; i += 13 {
		v, ok := kv.Get(Key(i))
		if !ok || v != Value(i, 64) {
			t.Fatalf("Get(%s) = %q, %v", Key(i), v, ok)
		}
	}
	if _, ok := kv.Get("zzz"); ok {
		t.Fatal("missing key found")
	}
	// Newest version wins across runs and memtable.
	kv.Put(Key(3), "v2")
	if v, _ := kv.Get(Key(3)); v != "v2" {
		t.Fatalf("stale read: %q", v)
	}
}

func TestLSMScan(t *testing.T) {
	m := newM(t)
	kv := NewLSMKV(m, 50, 300, 32)
	for i := 0; i < 300; i++ {
		kv.Put(Key(i), Value(i, 32))
	}
	var got []string
	kv.Scan(Key(100), Key(110), func(k, v string) { got = append(got, k) })
	if len(got) != 10 {
		t.Fatalf("scan returned %d keys, want 10: %v", len(got), got)
	}
	// Scan must return the newest version.
	kv.Put(Key(105), "fresh")
	found := false
	kv.Scan(Key(105), Key(106), func(k, v string) { found = v == "fresh" })
	if !found {
		t.Fatal("scan returned a stale version")
	}
}

func TestSkiplistOrdering(t *testing.T) {
	m := newM(t)
	arena := memsim.NewArena(1<<37, 1<<20) // clear of the stores' arenas, below memsim.MaxAddr
	s := newSkiplist(m, arena)
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, k := range keys {
		s.put(k, Value(i, 8))
	}
	entries := s.entries()
	if len(entries) != len(keys) {
		t.Fatalf("entries = %d", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].key >= entries[i].key {
			t.Fatalf("entries out of order: %v", entries)
		}
	}
}

func TestZipfSkewAndDeterminism(t *testing.T) {
	z1 := NewZipf(1000, 0.99, 7)
	z2 := NewZipf(1000, 0.99, 7)
	counts := make([]int, 1000)
	for i := 0; i < 20000; i++ {
		a, b := z1.Next(), z2.Next()
		if a != b {
			t.Fatal("zipf not deterministic")
		}
		counts[a]++
	}
	// Popular head: the top item should be drawn far more often than the
	// median item.
	if counts[0] < 50*maxInt(counts[500], 1) {
		t.Fatalf("zipf not skewed: head=%d mid=%d", counts[0], counts[500])
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestUniformCoversRange(t *testing.T) {
	u := NewUniform(10, 3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := u.Next()
		if v < 0 || v >= 10 {
			t.Fatalf("out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("uniform missed values: %v", seen)
	}
}

func TestWorkloadsRunOnBothEngines(t *testing.T) {
	for _, kind := range []EngineKind{HashEngine, LSMEngine} {
		m := newM(t)
		inst, err := NewInstance(kind, m, 2000, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range Workloads() {
			n, err := inst.Run(w, 0.05)
			if err != nil {
				t.Fatalf("%v %s: %v", kind, w.Name, err)
			}
			if n == 0 {
				t.Fatalf("%v %s ran nothing", kind, w.Name)
			}
		}
	}
}

// TestPointReadsAreCacheHostile is the structural claim behind the X1
// experiment: zipf point reads over a DRAM-sized store miss caches far more
// than a relational scan would, giving a lower L1D-hit share.
func TestPointReadsAreCacheHostile(t *testing.T) {
	m := newM(t)
	inst, err := NewInstance(HashEngine, m, 120_000, 128) // ~25MB working set
	if err != nil {
		t.Fatal(err)
	}
	before := m.Hier.Counters()
	if _, err := inst.Run(Workload{Name: "u", ReadFraction: 1, Theta: 0, Ops: 5000}, 1); err != nil {
		t.Fatal(err)
	}
	d := m.Hier.Counters().Sub(before)
	if d.MemAccesses == 0 {
		t.Fatal("uniform point reads never reached DRAM")
	}
	// The hot command path still hits, but the per-op index+value chase
	// must produce a visible DRAM rate per operation.
	if perOp := float64(d.MemAccesses) / 5000; perOp < 0.5 {
		t.Fatalf("DRAM accesses per op = %.2f, want >= 0.5", perOp)
	}
}
