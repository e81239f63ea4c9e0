package mubench

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"energydb/internal/cpusim"
	"energydb/internal/memsim"
)

// TestRunAllMatchesRun: RunAll, which builds each walker on a second
// goroutine while the benchmarks before it run, returns what Run returns spec
// by spec on a twin machine and leaves that machine as Run leaves its twin.
func TestRunAllMatchesRun(t *testing.T) {
	got := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 0.1)
	want := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 0.1)
	specs := slices.Concat(MBS(), VMBS(), Gathers())
	results := got.RunAll(specs)
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	for i, s := range specs {
		if g, w := results[i], want.Run(s); g != w {
			t.Fatalf("%s: result\n  got %+v\n want %+v", s.Name, g, w)
		}
	}
	sameMachine(t, got, want)
}

// TestWalkerBuilderNeverWaits: a reader that takes the first walker and
// stops does not keep the builder from building the rest and finishing.
func TestWalkerBuilderNeverWaits(t *testing.T) {
	specs := slices.Concat(MBS(), VMBS())
	walkers := buildWalkers(memsim.New(memsim.I7_4790()), specs)
	if w := <-walkers; w.s.Name != specs[0].Name {
		t.Fatalf("first walker is %s, want %s", w.s.Name, specs[0].Name)
	}
	for len(walkers) < len(specs)-1 { // every send lands while nobody reads
		runtime.Gosched()
	}
	for _, s := range specs[1:] {
		if w := <-walkers; w.s.Name != s.Name {
			t.Fatalf("walker for %s, want %s", w.s.Name, s.Name)
		}
	}
	if _, open := <-walkers; open {
		t.Fatal("the builder sent more walkers than specs")
	}
}

// TestInterleaveNMatchesInterleave: the one-loop accounting of a pass left
// unwalked counts what n interleave calls count and leaves the overhead's
// carry bit for bit where they leave it, for every mix of loop overhead and
// interleaved adds and nops the benchmarks use, from several carries.
func TestInterleaveNMatchesInterleave(t *testing.T) {
	type mix struct{ overhead, add, nop int }
	var mixes []mix
	for _, s := range slices.Concat(MBS(), VMBS(), Gathers(), Descents()) {
		if m := (mix{s.OverheadPerKiloOp, s.AddPerOp, s.NopPerOp}); !slices.Contains(mixes, m) {
			mixes = append(mixes, m)
		}
	}
	carries := []float64{0, 0.001, 0.3, 0.5, 0.977, math.Nextafter(1, 0)}
	for _, m := range mixes {
		for _, carry := range carries {
			for _, n := range []uint64{0, 1, 45, 1000, 98304} {
				s := Spec{Style: StyleExec, OverheadPerKiloOp: m.overhead, AddPerOp: m.add, NopPerOp: m.nop}
				one := newWalker(memsim.New(memsim.I7_4790()), s)
				each := newWalker(memsim.New(memsim.I7_4790()), s)
				one.overhead, each.overhead = carry, carry
				one.interleaveN(n)
				for range n {
					each.interleave()
				}
				if g, w := one.h.Counters(), each.h.Counters(); g != w {
					t.Fatalf("%+v carry %v, n %d: counters\n  got %+v\n want %+v", m, carry, n, g, w)
				}
				if g, w := math.Float64bits(one.overhead), math.Float64bits(each.overhead); g != w {
					t.Fatalf("%+v carry %v, n %d: carry %v, want %v", m, carry, n, one.overhead, each.overhead)
				}
			}
		}
	}
}

// BenchmarkCalibration/spec=<name> is one MBS benchmark at the scale every
// boot calibrates with, split into what a boot pays for it: building its
// walker (the layout), the warmup pass and the measured sessions, each
// reported in ms/op. RunAll builds the walkers on a second goroutine, so a
// boot pays the build only where the walkers ahead of it have not covered it.
func BenchmarkCalibration(b *testing.B) {
	for _, s := range MBS() {
		b.Run("spec="+s.Name, func(b *testing.B) {
			r := newRig(b, cpusim.IntelI7_4790(), cpusim.PStateMax, 0.1)
			var build, warmup, passes time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				w := newWalker(r.M.Hier, s)
				built := time.Now()
				r.M.Hier.ResetCaches()
				r.M.Hier.SetPrefetchEnabled(false)
				w.warmup()
				warm := time.Now()
				r.sessions(w)
				build += built.Sub(start)
				warmup += warm.Sub(built)
				passes += time.Since(warm)
			}
			ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(ms(build), "build-ms/op")
			b.ReportMetric(ms(warmup), "warmup-ms/op")
			b.ReportMetric(ms(passes), "passes-ms/op")
		})
	}
}
