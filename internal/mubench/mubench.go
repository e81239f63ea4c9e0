// Package mubench implements the paper's micro-benchmark methodology
// (Section 2.5): a benchmark set MBS that isolates individual
// micro-operations by construction — array traversal for stall-free L1D
// loads, pointer-chasing list traversal for dependent loads from a chosen
// memory layer, a repeated-variable store loop for Reg2L1D — plus the
// verification set VMBS of composite benchmarks used to validate the solved
// per-operation energies (Table 3).
package mubench

import (
	"fmt"
	"math/rand"
	"slices"

	"energydb/internal/cpusim"
	"energydb/internal/memsim"
	"energydb/internal/rapl"
)

// Style selects the benchmark's access framework.
type Style int

// Benchmark styles.
const (
	// StyleArray is Algorithm 1: unrolled sequential traversal of an
	// array of 64-byte items; loads are independent, so architectural
	// optimization hides the latency (no stall cycles).
	StyleArray Style = iota
	// StyleList is Algorithm 2: pointer-chasing traversal in layout
	// order; each load depends on the previous one.
	StyleList
	// StyleRandomList is Algorithm 3: pointer chasing over a randomized,
	// large-span permutation that defeats locality so the traversal only
	// hits the intended memory layer.
	StyleRandomList
	// StyleStoreVar is Algorithm 4: repeated stores of the same 64-byte
	// variable; after write-allocation every store completes in L1D.
	StyleStoreVar
	// StyleExec runs only add or nop instructions (B_add / B_nop).
	StyleExec
	// StyleListPair interleaves two pointer chases over different
	// layers (the B_L1D_list_L2 verification benchmark).
	StyleListPair
	// StyleGather visits StyleRandomList's permutation with independent
	// loads: a gather through an index vector, every address known before
	// any load is issued, as a batch engine knows a batch's row ids.
	StyleGather
	// StyleDescent walks random keys down a B+tree one key at a time: at
	// each level the node's header, then its binary-search rounds, every
	// load dependent on the one before.
	StyleDescent
	// StyleDescentGroup walks the same keys descentGroup at a time, level
	// by level: the level's node headers back to back, then each
	// binary-search round across the group, as independent loads — the
	// schedule of a batched index lookup (btree.Tree.SeekBatch).
	StyleDescentGroup
)

// The descent benchmarks' tree: nodes of a 16-byte header and descentFanout
// 16-byte entries, one per descentNodeBytes (five lines), with
// Spec.MemBytes/descentNodeBytes leaves under a root. A key is its path, one
// descentBits-bit digit a level; a node's visit reads the header, then
// descentBits binary-search rounds of one entry each.
const (
	descentBits      = 4
	descentFanout    = 1 << descentBits
	descentNodeBytes = 320
	descentGroup     = 64 // keys per group: a batch width
)

// descentLevels is the height of the descent tree over memBytes of leaves.
func descentLevels(memBytes uint64) int {
	levels := 1
	for n := uint64(1); n*descentNodeBytes < memBytes; n *= descentFanout {
		levels++
	}
	return levels
}

// Observe selects which RAPL domains constitute the benchmark's Busy-CPU
// energy observation (Section 2.6): core for workloads that stay within
// L1/L2, package when L3 is touched, package+dram when DRAM is touched.
type Observe int

// Observation rules.
const (
	ObserveCore Observe = iota
	ObservePackage
	ObservePackageDRAM
)

// Spec describes one micro-benchmark.
type Spec struct {
	Name  string
	Style Style
	// MemBytes is the allocated region size (Smem). 64-byte items.
	MemBytes uint64
	// MemBytes2 is the second region for StyleListPair.
	MemBytes2 uint64
	// Passes is the number of full traversals measured (the paper's T,
	// scaled down; Runner.Scale rescales it further).
	Passes int
	// SpanThreshold is Algorithm 3's εspan in items.
	SpanThreshold int
	// AddPerOp / NopPerOp interleave verification instructions with each
	// desired operation (VMBS composites).
	AddPerOp int
	NopPerOp int
	// ExecKind and ExecOps define StyleExec benchmarks.
	ExecKind memsim.InstrKind
	ExecOps  uint64
	// OverheadPerKiloOp is the number of loop-control ("other")
	// instructions per 1000 desired operations; it reproduces the BLI
	// (body-loop-instruction share) column of Table 1.
	OverheadPerKiloOp int
	// Observe picks the energy observation rule.
	Observe Observe
	// Seed drives the layout randomization.
	Seed int64
}

// DesiredOps returns how many "desired" instructions one pass issues (loads,
// stores, or exec ops), excluding interleaved add/nop and loop overhead.
func (s Spec) DesiredOps() uint64 {
	switch s.Style {
	case StyleExec:
		return s.ExecOps
	case StyleStoreVar:
		return s.MemBytes / memsim.LineSize * 64 // ut=64 unrolled blocks
	case StyleListPair:
		return s.MemBytes/memsim.LineSize + s.MemBytes2/memsim.LineSize
	case StyleDescent, StyleDescentGroup:
		return s.MemBytes / descentNodeBytes * uint64(descentLevels(s.MemBytes)*(1+descentBits))
	default:
		return s.MemBytes / memsim.LineSize
	}
}

// Standard sizes from Section 2.8: 31KB for the L1D benchmarks, 6MB for
// B_L3 and 60MB for B_mem. The paper allocates 260KB for B_L2 (L1D+L2
// capacity on hardware whose L2 is not strictly inclusive); this model's
// hierarchy is strictly inclusive, so B_L2 uses 240KB to keep the working
// set within L2 and preserve the intended "only access L2" behaviour
// (L2 miss rate ~0.02% in Table 1).
const (
	sizeL1D = 31 << 10
	sizeL2  = 240 << 10
	sizeL3  = 6 << 20
	sizeMem = 60 << 20
)

// MBS returns the micro-benchmark set of Section 2.5.2 plus the B_add and
// B_nop instruction benchmarks (8 rows of Table 1).
func MBS() []Spec {
	return []Spec{
		{Name: "B_L1D_list", Style: StyleList, MemBytes: sizeL1D, Passes: 3000,
			OverheadPerKiloOp: 11, Observe: ObserveCore, Seed: 101},
		{Name: "B_L1D_array", Style: StyleArray, MemBytes: sizeL1D, Passes: 3000,
			OverheadPerKiloOp: 5, Observe: ObserveCore, Seed: 102},
		{Name: "B_L2", Style: StyleRandomList, MemBytes: sizeL2, Passes: 300,
			SpanThreshold: 64, OverheadPerKiloOp: 15, Observe: ObserveCore, Seed: 103},
		{Name: "B_L3", Style: StyleRandomList, MemBytes: sizeL3, Passes: 14,
			SpanThreshold: 512, OverheadPerKiloOp: 14, Observe: ObservePackage, Seed: 104},
		{Name: "B_mem", Style: StyleRandomList, MemBytes: sizeMem, Passes: 2,
			SpanThreshold: 4096, OverheadPerKiloOp: 22, Observe: ObservePackageDRAM, Seed: 105},
		{Name: "B_Reg2L1D", Style: StyleStoreVar, MemBytes: sizeL1D, Passes: 50,
			OverheadPerKiloOp: 1, Observe: ObserveCore, Seed: 106},
		{Name: "B_add", Style: StyleExec, ExecKind: memsim.InstrAdd, ExecOps: 1 << 20,
			Passes: 2, OverheadPerKiloOp: 16, Observe: ObserveCore, Seed: 107},
		{Name: "B_nop", Style: StyleExec, ExecKind: memsim.InstrNop, ExecOps: 1 << 20,
			Passes: 2, OverheadPerKiloOp: 1, Observe: ObserveCore, Seed: 108},
	}
}

// VMBS returns the verification micro-benchmark set of Section 2.5.5
// (the 7 rows of Table 3).
func VMBS() []Spec {
	return []Spec{
		{Name: "B_L1D_list_nop", Style: StyleList, MemBytes: sizeL1D, Passes: 3000,
			NopPerOp: 2, OverheadPerKiloOp: 11, Observe: ObserveCore, Seed: 201},
		{Name: "B_L1D_array_add", Style: StyleArray, MemBytes: sizeL1D, Passes: 3000,
			AddPerOp: 1, OverheadPerKiloOp: 5, Observe: ObserveCore, Seed: 202},
		{Name: "B_L2_nop", Style: StyleRandomList, MemBytes: sizeL2, Passes: 300,
			SpanThreshold: 64, NopPerOp: 2, OverheadPerKiloOp: 15, Observe: ObserveCore, Seed: 203},
		{Name: "B_L3_add", Style: StyleRandomList, MemBytes: sizeL3, Passes: 14,
			SpanThreshold: 512, AddPerOp: 2, OverheadPerKiloOp: 14, Observe: ObservePackage, Seed: 204},
		{Name: "B_mem_nop", Style: StyleRandomList, MemBytes: sizeMem, Passes: 2,
			SpanThreshold: 4096, NopPerOp: 4, OverheadPerKiloOp: 22, Observe: ObservePackageDRAM, Seed: 205},
		{Name: "B_L1D_list_L2", Style: StyleListPair, MemBytes: 16 << 10, MemBytes2: sizeL2,
			Passes: 280, SpanThreshold: 64, OverheadPerKiloOp: 13, Observe: ObserveCore, Seed: 206},
		{Name: "B_L1D_list_nop_add", Style: StyleList, MemBytes: sizeL1D, Passes: 3000,
			NopPerOp: 1, AddPerOp: 1, OverheadPerKiloOp: 11, Observe: ObserveCore, Seed: 207},
	}
}

// Gathers returns the random-gather pairs beside VMBS (not in it: Table 3
// is VMBS alone): over an L2-, an L3- and a DRAM-sized array, the same
// large-span random permutation read as a pointer chase (dependent, like
// B_L2, B_L3 and B_mem) and as a grouped gather (independent). Their stall
// per load is the dependent rule's latency-1 against the independent rule's
// (latency-L1D)/IndependentMLP at each level: what a batch gains by issuing
// its addresses back to back.
func Gathers() []Spec {
	var out []Spec
	for i, g := range []struct {
		layer   string
		bytes   uint64
		passes  int
		span    int
		observe Observe
	}{
		{"L2", sizeL2, 300, 64, ObserveCore},
		{"L3", sizeL3, 14, 512, ObservePackage},
		{"mem", sizeMem, 2, 4096, ObservePackageDRAM},
	} {
		for _, st := range []Style{StyleRandomList, StyleGather} {
			name := "G_" + g.layer + "_dep"
			if st == StyleGather {
				name = "G_" + g.layer + "_group"
			}
			out = append(out, Spec{Name: name, Style: st, MemBytes: g.bytes, Passes: g.passes,
				SpanThreshold: g.span, OverheadPerKiloOp: 15, Observe: g.observe, Seed: int64(301 + i)})
		}
	}
	return out
}

// Descents returns the B+tree descent pair beside VMBS (not in it): one
// random key per leaf of a tree whose leaves span 20 MB, more than the L3
// holds, walked down one key at a time (dependent) and descentGroup keys at
// a time, level by level (independent). Both issue the same loads; the root
// and upper levels hit L1D and L2, the last interior level L3, the leaves
// DRAM, and each level's stall per load is the dependent rule's latency-1
// against the independent rule's (latency-L1D)/IndependentMLP: what a probe
// batch gains by descending its keys together.
func Descents() []Spec {
	var out []Spec
	for _, st := range []Style{StyleDescent, StyleDescentGroup} {
		name := "D_dep"
		if st == StyleDescentGroup {
			name = "D_group"
		}
		out = append(out, Spec{Name: name, Style: st, MemBytes: 20 << 20, Passes: 2,
			OverheadPerKiloOp: 15, Observe: ObservePackageDRAM, Seed: 401})
	}
	return out
}

// Result is the outcome of running one micro-benchmark.
type Result struct {
	Spec Spec
	// Counters is the PMU delta over the measured passes.
	Counters memsim.Counters
	// EBusy is the measured Busy-CPU energy (per the observation rule).
	EBusy float64
	// EActive is EBusy minus the background energy over the run.
	EActive float64
	// Seconds is the measured duration.
	Seconds float64
	// BLI is the body-loop-instruction percentage: desired instructions
	// (loads/stores/execs plus interleaved add/nop, which are desired in
	// VMBS composites) over all instructions.
	BLI float64
}

// Runner executes micro-benchmarks on a machine under the paper's runtime
// configuration: fixed P-state, prefetcher off, background power measured
// up front with the only-blocked method.
type Runner struct {
	M     *cpusim.Machine
	Meter *rapl.Meter
	// Background is the measured per-domain background power (watts).
	Background rapl.Reading
	// Scale rescales pass counts (1 = paper-shaped runs; tests use less).
	Scale float64
	// Repetitions is how many measured sessions are averaged per
	// benchmark; the paper runs workloads 100 times (10 for long ones)
	// and averages, which suppresses per-session measurement error.
	Repetitions int
}

// NewRunner prepares a runner, measuring background power once.
func NewRunner(m *cpusim.Machine, meter *rapl.Meter) *Runner {
	return &Runner{
		M:           m,
		Meter:       meter,
		Background:  meter.BackgroundPower(1.0),
		Scale:       1,
		Repetitions: 5,
	}
}

// Run executes one micro-benchmark: cold reset, prefetcher off, one warmup
// pass, then Repetitions measured sessions whose energies are averaged. Once
// the passes repeat themselves they are accounted instead of walked
// (walker.step); the Result and the machine's counters, time and energy are
// those of walking every pass.
func (r *Runner) Run(s Spec) Result {
	r.M.Hier.ResetCaches()
	r.M.Hier.SetPrefetchEnabled(false)
	return r.measure(newWalker(r.M.Hier, s))
}

// measure runs the warmup pass and the measured sessions of w's benchmark on
// the hierarchy as it stands.
func (r *Runner) measure(w *walker) Result {
	s := w.s
	passes := s.Passes
	if r.Scale > 0 && r.Scale != 1 {
		passes = int(float64(passes) * r.Scale)
		if passes < 1 {
			passes = 1
		}
	}
	reps := r.Repetitions
	if reps < 1 {
		reps = 1
	}

	w.warmup()

	var busy, seconds float64
	var delta memsim.Counters
	for rep := 0; rep < reps; rep++ {
		startCtr := r.M.Hier.Counters()
		sess := r.Meter.Begin()
		for i := 0; i < passes; i++ {
			w.step()
		}
		meas := sess.End()
		if rep == 0 {
			delta = r.M.Hier.Counters().Sub(startCtr)
		}
		switch s.Observe {
		case ObserveCore:
			busy += meas.Energy.Core
		case ObservePackage:
			busy += meas.Energy.Package
		default:
			busy += meas.Energy.Package + meas.Energy.DRAM
		}
		seconds += meas.Seconds
	}
	busy /= float64(reps)
	seconds /= float64(reps)
	var bg float64
	switch s.Observe {
	case ObserveCore:
		bg = r.Background.Core
	case ObservePackage:
		bg = r.Background.Package
	default:
		bg = r.Background.Package + r.Background.DRAM
	}

	// Same-snapshot identity, not a window delta: Instructions() sums
	// AddOps+NopOps+OtherOps of this one delta, so it cannot be smaller.
	desired := delta.Instructions() - delta.OtherOps
	bli := 0.0
	if n := delta.Instructions(); n > 0 {
		bli = float64(desired) / float64(n) * 100
	}
	return Result{
		Spec:     s,
		Counters: delta,
		EBusy:    busy,
		EActive:  busy - bg*seconds,
		Seconds:  seconds,
		BLI:      bli,
	}
}

// RunAll executes a list of specs in order.
func (r *Runner) RunAll(specs []Spec) []Result {
	out := make([]Result, 0, len(specs))
	for _, s := range specs {
		out = append(out, r.Run(s))
	}
	return out
}

// walker drives one benchmark's access stream.
type walker struct {
	h    *memsim.Hierarchy
	s    Spec
	base uint64
	// order is the item visit order (line indices) for list styles.
	order []uint32
	// order2/base2 is the second chase for StyleListPair.
	base2  uint64
	order2 []uint32
	// levels are the descent tree's level base addresses, root first;
	// order then holds the keys.
	levels []uint64
	// overhead accumulates fractional loop-control instructions.
	overhead      float64
	overheadSlope float64

	// Steady-state accounting, see step.
	walked int             // passes walked through the hierarchy; tests pin the saving on it
	checks int             // walked passes compared with the state they began in
	from   memsim.State    // where the last walked pass ended
	steady bool            // a compared pass ended where it began
	mem    memsim.Counters // what the memory accesses of that pass counted
}

// steadyChecks is how many passes after the warmup step compares before it
// stops looking for a steady state and walks the rest. Every benchmark of MBS
// and VMBS settles at the first comparison, on either machine profile: the
// warmup leaves each level holding the tail of the pass in access order, and
// so does every pass after it. A working set whose lower levels first see a
// pass filtered by the hits above them in the pass after the warmup would
// settle at the second. The third bounds what a run that never settles pays
// in snapshots; it is not a setting.
const steadyChecks = 3

func newWalker(h *memsim.Hierarchy, s Spec) *walker {
	w := &walker{h: h, s: s, overheadSlope: float64(s.OverheadPerKiloOp) / 1000}
	arena := memsim.NewArena(1<<30, s.MemBytes+s.MemBytes2+(4<<20))
	rng := rand.New(rand.NewSource(s.Seed))
	switch s.Style {
	case StyleArray, StyleList, StyleRandomList, StyleGather:
		w.base = arena.Alloc(s.MemBytes, memsim.PageSize)
		n := int(s.MemBytes / memsim.LineSize)
		w.order = layout(n, s.Style == StyleRandomList || s.Style == StyleGather, s.SpanThreshold, rng)
	case StyleStoreVar:
		w.base = arena.Alloc(memsim.LineSize, memsim.LineSize)
	case StyleListPair:
		w.base = arena.Alloc(s.MemBytes, memsim.PageSize)
		w.order = layout(int(s.MemBytes/memsim.LineSize), false, 0, rng)
		w.base2 = arena.Alloc(s.MemBytes2, memsim.PageSize)
		w.order2 = layout(int(s.MemBytes2/memsim.LineSize), true, s.SpanThreshold, rng)
	case StyleDescent, StyleDescentGroup:
		nodes := uint64(1)
		for range descentLevels(s.MemBytes) {
			w.levels = append(w.levels, arena.Alloc(nodes*descentNodeBytes, memsim.PageSize))
			nodes *= descentFanout
		}
		leaves := nodes / descentFanout
		w.order = make([]uint32, leaves)
		for i, leaf := range rng.Perm(int(leaves)) {
			w.order[i] = uint32(leaf*descentFanout + rng.Intn(descentFanout))
		}
	}
	return w
}

// descentLoad is the address of load j of key's visit to tree level l: the
// node's header for j = 0, then the entry binary-search round j reads.
func (w *walker) descentLoad(key uint32, l, j int) uint64 {
	below := uint(descentBits * (len(w.levels) - 1 - l))
	addr := w.levels[l] + uint64(key>>(below+descentBits))*descentNodeBytes
	if j == 0 {
		return addr
	}
	digit := key >> below & (descentFanout - 1)
	half := uint(descentBits - j) // round j halves a range of 2<<half entries
	mid := digit>>(half+1)<<(half+1) + 1<<half
	return addr + 16 + uint64(mid)*16
}

// layout produces the visit order: identity for sequential lists/arrays, or
// Algorithm 3's large-span random exchange for the deep-layer benchmarks.
func layout(n int, randomize bool, span int, rng *rand.Rand) []uint32 {
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	if !randomize {
		return order
	}
	if span <= 0 || span >= n/2 {
		span = n / 8
	}
	for z := 1; z < n-1; z++ {
		// Pick e with |z-e| > span, avoiding logical neighbors.
		e := 1 + rng.Intn(n-2)
		for tries := 0; abs(z-e) <= span && tries < 8; tries++ {
			e = 1 + rng.Intn(n-2)
		}
		order[z], order[e] = order[e], order[z]
	}
	return order
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// warmup walks the first pass, which populates the target layer, and notes
// the state it leaves for step to compare the next pass against.
func (w *walker) warmup() {
	w.pass(true)
	w.from = w.h.State()
}

// step runs one measured pass. Every pass of a benchmark issues the same
// loads and stores in the same order, so once a pass ends in a hierarchy
// state equal to the one it began in (memsim.State), each later pass would
// return the same levels, count the same events and end in that state again.
// From then on step does not walk the pass: it issues the instructions
// between the memory accesses, whose loop overhead carries a fraction from
// pass to pass and so is stepped as the walk steps it, and credits what the
// memory accesses of the compared pass counted. The counters after every
// pass, and with them the machine's time and energy, are those of the walk.
func (w *walker) step() {
	if w.h.Recorder() != nil {
		// The events are what the recorder's owner is after: this pass
		// and, the chain of compared states now broken, every later
		// one is walked.
		w.steady, w.checks = false, steadyChecks
	}
	switch {
	case w.steady:
		w.pass(false)
		w.h.Credit(w.mem)
	case w.checks == steadyChecks:
		w.pass(true)
	default:
		before := w.h.Counters()
		w.pass(true)
		w.checks++
		if after := w.h.State(); after.Equal(w.from) {
			w.steady = true
			w.mem = w.h.Counters().Sub(before).MemorySide()
			w.from = memsim.State{}
		} else {
			w.from = after
		}
	}
}

// pass runs one full traversal, through the hierarchy when walk is set and
// otherwise with its loads and stores left out.
func (w *walker) pass(walk bool) {
	s := w.s
	if walk {
		w.walked++
	}
	switch s.Style {
	case StyleArray, StyleGather:
		for _, idx := range w.order {
			if walk {
				w.h.Load(w.base+uint64(idx)*memsim.LineSize, false)
			}
			w.interleave()
		}
	case StyleList, StyleRandomList:
		for _, idx := range w.order {
			if walk {
				w.h.Load(w.base+uint64(idx)*memsim.LineSize, true)
			}
			w.interleave()
		}
	case StyleStoreVar:
		n := s.DesiredOps()
		for i := uint64(0); i < n; i++ {
			if walk {
				w.h.Store(w.base)
			}
			w.interleave()
		}
	case StyleExec:
		w.h.Exec(s.ExecOps, s.ExecKind)
		w.overheadN(float64(s.ExecOps))
	case StyleDescent, StyleDescentGroup:
		// One key at a time is a group of one whose loads are dependent.
		size, dep := descentGroup, false
		if s.Style == StyleDescent {
			size, dep = 1, true
		}
		for g := 0; g < len(w.order); g += size {
			group := w.order[g:min(g+size, len(w.order))]
			for l := range w.levels {
				for j := 0; j <= descentBits; j++ {
					for _, key := range group {
						if walk {
							w.h.Load(w.descentLoad(key, l, j), dep)
						}
						w.interleave()
					}
				}
			}
		}
	case StyleListPair:
		// Interleave the two chases item by item; the shorter list
		// wraps around.
		n := len(w.order2)
		for i := 0; i < n; i++ {
			if walk {
				w.h.Load(w.base+uint64(w.order[i%len(w.order)])*memsim.LineSize, true)
				w.h.Load(w.base2+uint64(w.order2[i])*memsim.LineSize, true)
			}
			w.interleave()
			w.interleave()
		}
	}
}

// interleave issues the composite add/nop instructions and loop overhead
// after each desired operation.
func (w *walker) interleave() {
	if w.s.AddPerOp > 0 {
		w.h.Exec(uint64(w.s.AddPerOp), memsim.InstrAdd)
	}
	if w.s.NopPerOp > 0 {
		w.h.Exec(uint64(w.s.NopPerOp), memsim.InstrNop)
	}
	w.overheadN(1)
}

func (w *walker) overheadN(ops float64) {
	w.overhead += ops * w.overheadSlope
	if w.overhead >= 1 {
		n := uint64(w.overhead)
		w.h.Exec(n, memsim.InstrOther)
		w.overhead -= float64(n)
	}
}

// FindSpec returns the spec with the given name from MBS, VMBS, Gathers or
// Descents.
func FindSpec(name string) (Spec, error) {
	for _, s := range slices.Concat(MBS(), VMBS(), Gathers(), Descents()) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("mubench: unknown benchmark %q", name)
}
