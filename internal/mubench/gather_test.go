package mubench

import (
	"strings"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/memsim"
)

// TestGatherStallModel runs the random-gather pairs and checks their stall
// against Figure 3's model level by level: a dependent load stalls its
// level's latency less the one issue cycle, an independent one the latency
// past L1D spread over IndependentMLP, and an independent L1D hit nothing.
// Each array is read from the level it is sized for, so the stall per load
// is that level's figure: L2 11 vs 2, L3 33 vs 7, DRAM 199 vs 49 cycles on
// the i7-4790.
func TestGatherStallModel(t *testing.T) {
	r := newRunner(t, 0.02)
	r.Repetitions = 1
	cfg := r.M.Hier.Config()
	lat := map[memsim.Level]int{
		memsim.LevelL1D: cfg.L1D.LatencyCycles,
		memsim.LevelL2:  cfg.L2.LatencyCycles,
		memsim.LevelL3:  cfg.L3.LatencyCycles,
		memsim.LevelMem: cfg.MemLatencyCycles,
	}
	stall := func(level memsim.Level, dependent bool) uint64 {
		if dependent {
			return uint64(lat[level] - 1)
		}
		return uint64((lat[level] - lat[memsim.LevelL1D]) / cfg.IndependentMLP)
	}
	target := map[string]memsim.Level{"L2": memsim.LevelL2, "L3": memsim.LevelL3, "mem": memsim.LevelMem}
	specs := Gathers()
	if len(specs) != 6 {
		t.Fatalf("%d gather specs, want a dependent and a grouped one per level", len(specs))
	}
	for _, s := range specs {
		if testing.Short() && s.MemBytes == sizeMem {
			continue
		}
		c := r.Run(s).Counters
		dep := s.Style == StyleRandomList
		served := map[memsim.Level]uint64{
			memsim.LevelL1D: c.L1DHits,
			memsim.LevelL2:  c.L2Hits,
			memsim.LevelL3:  c.L3Hits,
			memsim.LevelMem: c.MemAccesses,
		}
		var want uint64
		for level, n := range served {
			want += n * stall(level, dep)
		}
		if c.StallCycles != want {
			t.Errorf("%s: %d stall cycles, the model gives %d for %v", s.Name, c.StallCycles, want, served)
		}
		layer, _, _ := strings.Cut(strings.TrimPrefix(s.Name, "G_"), "_")
		level := target[layer]
		if share := float64(served[level]) / float64(c.Loads); share < 0.95 {
			t.Errorf("%s: %.1f%% of loads served by its level, want >= 95%%", s.Name, share*100)
		}
		per := float64(c.StallCycles) / float64(c.Loads)
		if exact := float64(stall(level, dep)); per < 0.95*exact || per > exact {
			t.Errorf("%s: %.2f stall cycles per load, want about %.0f", s.Name, per, exact)
		}
		t.Logf("%-12s %6.2f stall cycles per load (level figure %d)", s.Name, per, stall(level, dep))
	}
}

// TestDescentStallModel runs the B+tree descent pair: both sides issue the
// same loads, and each side's stall is Figure 3's rule at the level that
// served every load — latency-1 for the key-at-a-time descent, (latency-L1D)
// spread over IndependentMLP for the level-by-level one — so the group's
// saving per load is the random gather's at each level. The leaves must
// reach DRAM. Credited passes count what walking them counts (left out under
// -short).
func TestDescentStallModel(t *testing.T) {
	r := newRunner(t, 0.5)
	r.Repetitions = 1
	cfg := r.M.Hier.Config()
	lat := map[memsim.Level]int{
		memsim.LevelL1D: cfg.L1D.LatencyCycles,
		memsim.LevelL2:  cfg.L2.LatencyCycles,
		memsim.LevelL3:  cfg.L3.LatencyCycles,
		memsim.LevelMem: cfg.MemLatencyCycles,
	}
	stall := func(level memsim.Level, dependent bool) uint64 {
		if dependent {
			return uint64(lat[level] - 1)
		}
		return uint64((lat[level] - lat[memsim.LevelL1D]) / cfg.IndependentMLP)
	}
	specs := Descents()
	if len(specs) != 2 {
		t.Fatalf("%d descent specs, want a dependent and a grouped one", len(specs))
	}
	var loads []uint64
	for _, s := range specs {
		c := r.Run(s).Counters
		dep := s.Style == StyleDescent
		served := map[memsim.Level]uint64{
			memsim.LevelL1D: c.L1DHits,
			memsim.LevelL2:  c.L2Hits,
			memsim.LevelL3:  c.L3Hits,
			memsim.LevelMem: c.MemAccesses,
		}
		var want uint64
		for level, n := range served {
			want += n * stall(level, dep)
		}
		if c.StallCycles != want {
			t.Errorf("%s: %d stall cycles, the model gives %d for %v", s.Name, c.StallCycles, want, served)
		}
		if c.Loads != s.DesiredOps() {
			t.Errorf("%s: %d loads a pass, want %d", s.Name, c.Loads, s.DesiredOps())
		}
		if share := float64(c.MemAccesses) / float64(c.Loads); share < 0.1 {
			t.Errorf("%s: %.1f%% of loads from DRAM, want the leaves there", s.Name, share*100)
		}
		loads = append(loads, c.Loads)
		t.Logf("%-8s %6.2f stall cycles per load, served L1D/L2/L3/DRAM %d/%d/%d/%d", s.Name,
			float64(c.StallCycles)/float64(c.Loads), c.L1DHits, c.L2Hits, c.L3Hits, c.MemAccesses)
	}
	if loads[0] != loads[1] {
		t.Errorf("the descents issue %d and %d loads, want the same", loads[0], loads[1])
	}

	if testing.Short() {
		return
	}
	got := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 1)
	want := newRig(t, cpusim.IntelI7_4790(), cpusim.PStateMax, 1)
	got.Repetitions, want.Repetitions = 2, 2
	for _, s := range specs {
		if g, w := got.Run(s), fullWalk(want, s); g != w {
			t.Fatalf("%s: result\n  got %+v\n want %+v", s.Name, g, w)
		}
		sameMachine(t, got, want)
	}
}
