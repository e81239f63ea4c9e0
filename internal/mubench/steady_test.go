package mubench

import (
	"fmt"
	"slices"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/memsim"
	"energydb/internal/rapl"
)

// newRig builds a machine at a P-state with a noisy meter and a runner on it.
// Product and oracle each get one, built alike, so their noise streams draw
// alike.
func newRig(t testing.TB, p cpusim.Profile, ps cpusim.PState, scale float64) *Runner {
	t.Helper()
	m := cpusim.NewMachine(p)
	if err := m.SetPState(ps); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(m, rapl.NewMeter(m, 42, rapl.DefaultNoise))
	r.Scale = scale
	return r
}

// sameMachine fails unless the two runners' machines are indistinguishable:
// counters, energy and time bit for bit, hierarchy state up to memsim.State.
func sameMachine(t *testing.T, got, want *Runner) {
	t.Helper()
	if g, w := got.M.Hier.Counters(), want.M.Hier.Counters(); g != w {
		t.Fatalf("counters\n  got %+v\n want %+v", g, w)
	}
	if g, w := got.M.ActiveEnergy(), want.M.ActiveEnergy(); g != w {
		t.Fatalf("active energy %+v, full walk %+v", g, w)
	}
	if g, w := got.M.WallSeconds(), want.M.WallSeconds(); g != w {
		t.Fatalf("wall seconds %v, full walk %v", g, w)
	}
	if !got.M.Hier.State().Equal(want.M.Hier.State()) {
		t.Fatal("hierarchy state differs from the full walk's")
	}
}

// measured is Run with the walker handed back, for the count of walked passes.
func measured(r *Runner, s Spec) (*walker, Result) {
	r.M.Hier.ResetCaches()
	r.M.Hier.SetPrefetchEnabled(false)
	w := newWalker(r.M.Hier, s)
	return w, r.measure(w)
}

// totalPasses is what a full walk of s on r walks: the warmup and every pass
// of every session.
func totalPasses(r *Runner, s Spec) int {
	passes := int(float64(s.Passes) * r.Scale)
	if passes < 1 {
		passes = 1
	}
	return 1 + passes*r.Repetitions
}

// TestRunMatchesFullWalk runs MBS and VMBS back to back on one machine, as
// calibration and verification do, then Gathers and Descents, beside the
// oracle on another, and compares after every benchmark. The gathers issue
// their deepest pass in closed form with independent loads; the descents
// never do and walk. Gathers and Descents run at the smallest and the
// paper-shaped scale only: their 60 MB and 20 MB specs run one pass a
// session at every scale below 1, so the middle scales would repeat the
// smallest at the cost of the oracle's walks.
func TestRunMatchesFullWalk(t *testing.T) {
	machines := []struct {
		name    string
		profile cpusim.Profile
		pstate  cpusim.PState
	}{
		{"i7-top", cpusim.IntelI7_4790(), cpusim.PStateMax},
		{"i7-bottom", cpusim.IntelI7_4790(), cpusim.PStateMin},
		{"arm1176", cpusim.ARM1176(), cpusim.ARM1176().MaxPState},
	}
	for _, mc := range machines {
		for _, scale := range []float64{0.02, 0.1, 0.3, 1} {
			t.Run(fmt.Sprintf("%s/scale=%v", mc.name, scale), func(t *testing.T) {
				if scale == 1 && testing.Short() {
					t.Skip("paper-shaped pass counts: long")
				}
				t.Parallel() // the oracle's walks are the cost; each pair owns its machines
				got := newRig(t, mc.profile, mc.pstate, scale)
				want := newRig(t, mc.profile, mc.pstate, scale)
				specs := slices.Concat(MBS(), VMBS())
				if scale == 0.02 || scale == 1 {
					specs = slices.Concat(specs, Gathers(), Descents())
				}
				for _, s := range specs {
					if g, w := got.Run(s), fullWalk(want, s); g != w {
						t.Fatalf("%s: result\n  got %+v\n want %+v", s.Name, g, w)
					}
					sameMachine(t, got, want)
				}
			})
		}
	}
}

// TestWalkedPasses pins the saving: at the scale every boot calibrates with,
// B_mem and B_mem_nop walk none of their six passes (the warmup is issued in
// closed form and the first compared pass is known to end where it began),
// every other benchmark of one order walks only its first compared pass (its
// warmup, over distinct lines from cold caches, is issued in closed form),
// and no benchmark of either set walks more than the warmup and the compared
// passes.
func TestWalkedPasses(t *testing.T) {
	r := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 0.1)
	for _, s := range append(MBS(), VMBS()...) {
		w, _ := measured(r, s)
		total := totalPasses(r, s)
		t.Logf("%-20s walked %d of %d", s.Name, w.walked, total)
		if !w.steady || w.walked > 1+steadyChecks {
			t.Errorf("%s: walked %d of %d passes (steady=%v), want at most %d",
				s.Name, w.walked, total, w.steady, 1+steadyChecks)
		}
		switch s.Style {
		case StyleArray, StyleList, StyleRandomList:
			if w.walked > 1 {
				t.Errorf("%s walked %d of %d passes, want at most 1", s.Name, w.walked, total)
			}
		}
		if (s.Name == "B_mem" || s.Name == "B_mem_nop") && (w.walked != 0 || total != 6) {
			t.Errorf("%s walked %d of %d passes, want 0 of 6", s.Name, w.walked, total)
		}
	}
}

// dram is a pointer chase over 12 MB: longer than the 8 MB L3, so every load
// reaches DRAM, and a sixth of B_mem's walk.
var dram = Spec{Name: "dram", Style: StyleRandomList, MemBytes: 12 << 20,
	SpanThreshold: 4096, OverheadPerKiloOp: 22, Seed: 9}

// drive runs the warmup and n passes of s on both runners, the product
// through step and the oracle through pass, with between(r, i) applied to
// each before pass i. It returns the product's walker.
func drive(t *testing.T, got, want *Runner, s Spec, n int, between func(r *Runner, i int)) *walker {
	t.Helper()
	w, ref := newWalker(got.M.Hier, s), newWalker(want.M.Hier, s)
	w.warmup()
	ref.pass(true)
	for i := 0; i < n; i++ {
		between(got, i)
		between(want, i)
		w.step()
		ref.pass(true)
		sameMachine(t, got, want)
	}
	return w
}

// TestNeverSteadyWalksEveryPass: a hierarchy that something else keeps
// changing between passes never ends a pass where the last one ended; after
// steadyChecks comparisons step walks without looking. The warmup, over
// distinct lines from cold caches, is issued in closed form.
func TestNeverSteadyWalksEveryPass(t *testing.T) {
	got := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 1)
	want := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 1)
	s, _ := FindSpec("B_L2")
	const n = 8
	w := drive(t, got, want, s, n, func(r *Runner, i int) {
		r.M.Hier.Load(1<<40+uint64(i)*memsim.PageSize, false) // a new line every time
	})
	if w.steady || w.checks != steadyChecks || w.walked != n {
		t.Fatalf("steady=%v after %d checks, walked %d of %d", w.steady, w.checks, w.walked, 1+n)
	}

	// Left alone, the same drive settles at once.
	w = drive(t, got, want, s, n, func(*Runner, int) {})
	if !w.steady || w.walked > 1+steadyChecks {
		t.Fatalf("undisturbed: steady=%v, walked %d of %d", w.steady, w.walked, 1+n)
	}
}

// TestLatencyChangeWalksEveryPass: the latency configuration is part of the
// state, so a P-state change before every pass (DRAM latency in cycles
// follows the clock) leaves no pass ending where the last one ended. The
// chase misses everywhere, so its warmup is issued in closed form and the
// change before the first pass must stop step from taking that pass as known.
func TestLatencyChangeWalksEveryPass(t *testing.T) {
	got := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 1)
	want := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 1)
	const n = 6
	w := drive(t, got, want, dram, n, func(r *Runner, i int) {
		p := cpusim.PStateMax
		if i%2 == 0 {
			p = cpusim.PState12
		}
		if err := r.M.SetPState(p); err != nil {
			t.Fatal(err)
		}
	})
	if w.steady || !w.thrash || w.walked != n {
		t.Fatalf("steady=%v, closed-form warmup %v, walked %d of %d", w.steady, w.thrash, w.walked, 1+n)
	}
}

// TestClosedFormWarmupEndsOnFirstPage: the warmup's first load, on a cold
// hierarchy, crosses a page; the next pass's crosses only if the pass ends on
// another page than it starts on. Layout fixes the first and last line of
// every random order, pages apart, so the chase here is reordered to end on
// its first page, and the credited passes must still count what the walk does.
func TestClosedFormWarmupEndsOnFirstPage(t *testing.T) {
	got := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 1)
	want := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 1)
	w, ref := newWalker(got.M.Hier, dram), newWalker(want.M.Hier, dram)
	for _, x := range []*walker{w, ref} {
		i, last := slices.Index(x.order, 1), len(x.order)-1
		x.order[i], x.order[last] = x.order[last], x.order[i]
	}
	w.warmup()
	ref.pass(true)
	const n = 3
	for i := 0; i < n; i++ {
		w.step()
		ref.pass(true)
		sameMachine(t, got, want)
	}
	if !w.thrash || !w.steady || w.walked != 0 {
		t.Fatalf("closed-form warmup %v, steady=%v, walked %d of %d", w.thrash, w.steady, w.walked, 1+n)
	}
}

// TestPrefetcherOnWalksEveryPass: with the streamer running its table is
// live state, stamped by a clock that every access advances.
func TestPrefetcherOnWalksEveryPass(t *testing.T) {
	got := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 0.02)
	want := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 0.02)
	for _, name := range []string{"B_L1D_list", "B_L2"} {
		s, _ := FindSpec(name)
		for _, r := range []*Runner{got, want} {
			r.M.Hier.ResetCaches()
			r.M.Hier.SetPrefetchEnabled(true)
		}
		w := newWalker(got.M.Hier, s)
		if g, f := got.measure(w), fullWalkMeasure(want, newWalker(want.M.Hier, s)); g != f {
			t.Fatalf("%s: result\n  got %+v\n want %+v", name, g, f)
		}
		sameMachine(t, got, want)
		if total := totalPasses(got, s); w.steady || w.walked != total {
			t.Fatalf("%s: steady=%v, walked %d of %d", name, w.steady, w.walked, total)
		}
	}
	if c := got.M.Hier.Counters(); c.PrefetchL2 == 0 {
		t.Fatalf("the streamer issued nothing: %+v", c)
	}
}

// TestRecorderWalksEveryPass: a recorder sees every event of every pass.
func TestRecorderWalksEveryPass(t *testing.T) {
	got := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 0.02)
	want := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 0.02)
	type event struct {
		kind    memsim.AccessKind
		addr, n uint64
	}
	var gotEv, wantEv []event
	got.M.Hier.SetRecorder(func(k memsim.AccessKind, a, n uint64) { gotEv = append(gotEv, event{k, a, n}) })
	want.M.Hier.SetRecorder(func(k memsim.AccessKind, a, n uint64) { wantEv = append(wantEv, event{k, a, n}) })
	for _, name := range []string{"B_L2", "B_L1D_array_add"} {
		s, _ := FindSpec(name)
		w, g := measured(got, s)
		if f := fullWalk(want, s); g != f {
			t.Fatalf("%s: result\n  got %+v\n want %+v", name, g, f)
		}
		sameMachine(t, got, want)
		if total := totalPasses(got, s); w.steady || w.walked != total {
			t.Fatalf("%s: steady=%v, walked %d of %d", name, w.steady, w.walked, total)
		}
		if len(gotEv) != len(wantEv) {
			t.Fatalf("%s: %d events, full walk %d", name, len(gotEv), len(wantEv))
		}
		for i := range gotEv {
			if gotEv[i] != wantEv[i] {
				t.Fatalf("%s: event %d is %+v, full walk %+v", name, i, gotEv[i], wantEv[i])
			}
		}
	}
}
