package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"energydb/internal/db/value"
	"energydb/internal/memsim"
	"energydb/internal/server/wire"
	"energydb/internal/trace"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	small := []float64{3, 5, 9}
	if got := percentile(small, 0.5); got != 5 {
		t.Errorf("p50 of 3 samples = %g, want 5", got)
	}
	if got := percentile(small, 0.99); got != 9 {
		t.Errorf("p99 of 3 samples = %g, want the maximum", got)
	}
	large := make([]float64, 1000)
	for i := range large {
		large[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 500, 0.9: 900, 0.99: 990, 1: 1000} {
		if got := percentile(large, p); got != want {
			t.Errorf("p%g of 1..1000 = %g, want %g", p*100, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestSeedFixesTheLists(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"analytic-resident", "point-lookup", "txn-mixed"} {
		hashes := func(seed int64) [numClients]string {
			w, err := newWorkload(name, seed, golden)
			if err != nil {
				t.Fatal(err)
			}
			var out [numClients]string
			for i, l := range w.lists {
				if len(l)%w.cycle[i] != 0 {
					t.Errorf("%s client %d: %d operations is not a whole number of cycles of %d", name, i, len(l), w.cycle[i])
				}
				out[i] = listHash(l)
			}
			return out
		}
		a, b, c := hashes(1), hashes(1), hashes(2)
		if a != b {
			t.Errorf("%s: seed 1 gave two different lists", name)
		}
		if a[0] == c[0] || a[1] == c[1] {
			t.Errorf("%s: seeds 1 and 2 gave the same list", name)
		}
		if a[0] == a[1] {
			t.Errorf("%s: both clients got the same list", name)
		}
	}
	if _, err := newWorkload("nope", 1, golden); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestExpand(t *testing.T) {
	got := expand("INSERT $K / DELETE $D / SET $N", 12)
	if want := "INSERT 1000012 / DELETE 1000007 / SET 12"; got != want {
		t.Errorf("expand = %q, want %q", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},       // nested
		{Name: "b", Parent: 0, Start: 30, End: 60},       // overlaps a: 30..40 counted once
		{Name: "c", Parent: 0, Start: 90, End: 120},      // sticks out of the parent: only 90..100 counts
		{Name: "a.inner", Parent: 1, Start: 15, End: 20}, // grandchild: comes off a, not off op
	}
	want := []int64{100 - (30 + 20 + 10), 30 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestReplayFusesRepeats(t *testing.T) {
	h := memsim.New(memsim.I7_4790())
	var ev []trace.Event
	h.SetRecorder(func(k memsim.AccessKind, addr, n uint64) { ev = append(ev, trace.Event{Kind: k, Addr: addr, N: n}) })
	h.Load(0x1000, false) // a plain load of the line a repeat then hits: must stay its own call
	h.LoadRepeat(0x1000, 5)
	h.StoreRepeat(0x2000, 3)
	h.LoadRepeat(0x3000, 1) // no repeat event follows a single access
	h.Load(0x4000, true)
	h.Exec(7, memsim.InstrAdd)
	h.SetRecorder(nil)

	calls := 0
	fresh := h.NewLike()
	fresh.SetRecorder(func(k memsim.AccessKind, _, _ uint64) {
		if k != memsim.AccessLoadRepeat && k != memsim.AccessStoreRepeat {
			calls++
		}
	})
	if err := replay(ev, fresh); err != nil {
		t.Fatal(err)
	}
	if want := 6; calls != want {
		t.Errorf("replay made %d hierarchy calls, want %d (one per call recorded)", calls, want)
	}
	if err := checkFidelity(h.Counters(), fresh.Counters()); err != nil {
		t.Error(err)
	}
	if h.Counters().Loads != 8 || h.Counters().Stores != 3 {
		t.Errorf("recorded %d loads and %d stores, want 8 and 3", h.Counters().Loads, h.Counters().Stores)
	}

	orphan := []trace.Event{{Kind: memsim.AccessLoadInd, Addr: 0x1000, N: 1}, {Kind: memsim.AccessLoadRepeat, Addr: 0x5000, N: 4}}
	if err := replay(orphan, h.NewLike()); err == nil {
		t.Error("a repeat whose head is another address was replayed")
	}
	if err := replay(orphan[1:], h.NewLike()); err == nil {
		t.Error("a repeat with nothing before it was replayed")
	}
}

func TestCheckFidelityCatchesDivergence(t *testing.T) {
	a := memsim.Counters{Loads: 10, L2Misses: 1000}
	b := a
	b.L2Misses++
	if err := checkFidelity(a, b); err == nil {
		t.Error("one more L2 miss went unnoticed")
	}
}

func TestHashResultCanonicalisation(t *testing.T) {
	cols := []string{"a", "b"}
	sum := func(rows ...value.Row) uint64 { return hashResult(cols, rows, nil, true) }
	if sum(value.Row{value.Float(1.0000000001), value.Int(1)}) != sum(value.Row{value.Float(1.0), value.Int(1)}) {
		t.Error("1.0000000001 and 1.0 differ beyond nine significant digits yet hash apart")
	}
	if sum(value.Row{value.Float(1.00001), value.Int(1)}) == sum(value.Row{value.Float(1.0), value.Int(1)}) {
		t.Error("1.00001 and 1.0 hash alike")
	}
	if sum(value.Row{value.Null(), value.Int(1)}) == sum(value.Row{value.Str(""), value.Int(1)}) {
		t.Error("NULL and the empty string hash alike")
	}
	if sum(value.Row{value.Int(1), value.Int(1)}) == sum(value.Row{value.Float(1), value.Int(1)}) {
		t.Error("integer 1 and float 1 hash alike")
	}
	if sum(value.Row{value.Float(math.Copysign(0, -1)), value.Int(1)}) != sum(value.Row{value.Float(0), value.Int(1)}) {
		t.Error("-0 and 0 hash apart")
	}
	r1, r2 := value.Row{value.Str("x"), value.Int(1)}, value.Row{value.Str("y"), value.Int(2)}
	if hashResult(cols, []value.Row{r1, r2}, nil, false) != hashResult(cols, []value.Row{r2, r1}, nil, false) {
		t.Error("row order changed an unordered result's hash")
	}
	if hashResult(cols, []value.Row{r1, r2}, nil, true) == hashResult(cols, []value.Row{r2, r1}, nil, true) {
		t.Error("row order did not change an ordered result's hash")
	}
	if hashResult(cols, []value.Row{r1}, []int{0}, true) != hashResult(cols, []value.Row{{value.Str("x"), value.Int(99)}}, []int{0}, true) {
		t.Error("a column outside pick changed the hash")
	}
	if hashResult([]string{"a", "c"}, []value.Row{r1}, nil, true) == hashResult(cols, []value.Row{r1}, nil, true) {
		t.Error("column names are not part of the hash")
	}
}

func TestCheckEnergy(t *testing.T) {
	rep := &wire.EnergyReport{Name: "q", EActive: 10, Joules: [8]float64{1, 2, 3, 0, 0, 0, 0, 4}}
	if err := checkEnergy(rep); err != nil {
		t.Error(err)
	}
	rep.Joules[0] = 1.001
	if err := checkEnergy(rep); err == nil {
		t.Error("components summing to 10.001 J passed for an E_active of 10 J")
	}
	// The residual clamped at zero: the modelled terms alone exceed the measurement.
	clamped := &wire.EnergyReport{Name: "cold", EActive: -1, Joules: [8]float64{1, 2}}
	if err := checkEnergy(clamped); err != nil {
		t.Error(err)
	}
	short := &wire.EnergyReport{Name: "lost", EActive: 5, Joules: [8]float64{1, 2}}
	if err := checkEnergy(short); err == nil {
		t.Error("two joules went missing and the check passed")
	}
}

func TestHotSetOracle(t *testing.T) {
	h := &hotSet{}
	h.keys[3], h.orig[3] = 42, 1234.5
	for _, c := range []struct {
		got         float64
		floor, ceil int64
		ok          bool
	}{
		{1234.5, 0, 0, true},  // nothing written yet
		{1234.5, 0, 9, true},  // written but maybe not committed when the snapshot was taken
		{1234.5, 7, 9, false}, // 7 was committed before the SELECT was sent
		{7, 7, 9, true},       // the committed value
		{9, 7, 9, true},       // a later one, committed meanwhile
		{6, 7, 9, false},      // older than what was already committed: a stale snapshot
		{10, 7, 9, false},     // never sent
		{7.5, 7, 9, false},    // the writer only stores whole numbers
		{0, 0, 9, false},      // neither loaded nor written
	} {
		if err := h.checkRead(3, c.got, c.floor, c.ceil); (err == nil) != c.ok {
			t.Errorf("checkRead(got %v, committed %d, sent %d): err = %v, want ok = %v", c.got, c.floor, c.ceil, err, c.ok)
		}
	}
	if err := h.checkFinal(3, 1234.5, 0); err != nil {
		t.Error(err)
	}
	if err := h.checkFinal(3, 17, 17); err != nil {
		t.Error(err)
	}
	if err := h.checkFinal(3, 16, 17); err == nil {
		t.Error("the row holds 16, the writer last committed 17, and the final check passed")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "lat", better: "lower", bound: 0.10}
	higher := metricDef{name: "rate", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 80, 130, 60, 110, 90, 150}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"20% lower latency", lower, steady, shift(steady, 0.8), "improved"},
		{"20% higher latency", lower, steady, shift(steady, 1.2), "regressed"},
		{"5% higher latency is inside the bound", lower, steady, shift(steady, 1.05), "unchanged"},
		{"20% higher rate", higher, steady, shift(steady, 1.2), "improved"},
		{"20% lower rate", higher, steady, shift(steady, 0.8), "regressed"},
		{"parent too noisy to tell", lower, noisy, shift(noisy, 1.02), "unresolved"},
		{"noisy parent, every run better", lower, noisy, shift(steady, 0.3), "improved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json and the tables in metrics.go and workload.go say the same.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q)", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, code has %d + %d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
	}
}
