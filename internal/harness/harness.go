// Package harness regenerates every table and figure of the paper's
// evaluation: Tables 1, 2, 3 and 5 (the micro-benchmark methodology) and
// Figures 5–11 and 13 (the database energy study and the proof-of-concept
// system). Each experiment renders a fixed-width text table and a CSV.
package harness

import (
	"fmt"
	"slices"
	"strings"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/rapl"
	"energydb/internal/tpch"
)

// Options configures an experiment run.
type Options struct {
	// Class is the dataset size class (experiments that sweep sizes
	// ignore it).
	Class tpch.SizeClass
	// Setting is the knob setting (experiments that sweep settings
	// ignore it).
	Setting engine.Setting
	// Scale rescales micro-benchmark pass counts (1 = paper-shaped).
	Scale float64
	// Quick restricts query sweeps to a subset and the smallest class,
	// for tests and smoke runs.
	Quick bool
	// Seed drives measurement noise.
	Seed int64
}

// DefaultOptions returns the paper-shaped configuration.
func DefaultOptions() Options {
	return Options{
		Class:   tpch.Size100MB,
		Setting: engine.SettingBaseline,
		Scale:   0.2,
		Seed:    42,
	}
}

// effective fills the default of an unset Scale and, under o.Quick, shrinks
// the class and the scale for fast runs.
func (o Options) effective() Options {
	if o.Scale <= 0 {
		o.Scale = 0.2
	}
	if o.Quick {
		o.Class = tpch.Size10MB
		if o.Scale > 0.05 {
			o.Scale = 0.05
		}
	}
	return o
}

// workScale rescales CPU2006 kernel iteration counts: 0.2, or 0.05 under
// o.Quick.
func (o Options) workScale() float64 {
	if o.Quick {
		return 0.05
	}
	return 0.2
}

// Result is a rendered experiment.
type Result struct {
	ID    string
	Title string
	// Text is the human-readable table.
	Text string
	// CSV is the same data in machine-readable form.
	CSV string
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (Result, error)
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"T1", "Table 1: runtime behaviors of micro-benchmarks", RunTable1},
		{"T2", "Table 2: energy cost of micro-operations at P-states 36/24/12", RunTable2},
		{"T3", "Table 3: verification micro-benchmarks and accuracy", RunTable3},
		{"T5", "Table 5: energy bottleneck of B_mem at different P-states", RunTable5},
		{"F5", "Figure 5: query count distribution over percent of P-state 36", RunFigure5},
		{"F6", "Figure 6: Active energy breakdown of basic query operations", RunFigure6},
		{"F7", "Figure 7: Active energy breakdown of TPC-H", RunFigure7},
		{"F8", "Figure 8: impact of data size", RunFigure8},
		{"F9", "Figure 9: impact of database setting", RunFigure9},
		{"F10", "Figure 10: energy cost breakdown of CPU2006", RunFigure10},
		{"F11", "Figure 11: impact of CPU frequencies and voltages", RunFigure11},
		{"F13", "Figure 13: energy saving and performance improvement with DTCM", RunFigure13},
		{"X1", "Extension: NoSQL key-value store breakdown (Section 7 future work)", RunExtensionNoSQL},
		{"X2", "Extension: stall-aware DVFS policy (Section 5 suggestion)", RunExtensionDVFS},
		{"X3", "Extension: ITCM on top of the DTCM co-design (Section 5 suggestion)", RunExtensionITCM},
		{"X4", "Extension: update-statement breakdown (the write path deferred in Section 2.3)", RunExtensionWrites},
		{"X5", "Extension: customized-CPU architecture sweep via trace replay (Section 4.1 design space)", RunExtensionArchSweep},
		{"X7", "Extension: vectorized execution and the L1D bottleneck (share with/without vectorization)", RunExtensionVector},
		{"X8", "Extension: vectorized join/sort vs forced-row execution (join-dominated subset deltas)", RunExtensionJoin},
		{"X9", "Extension: optimizer accuracy sweep (predicted vs measured E_active, Figure 7 share ordering on optimizer plans)", RunExtensionAccuracy},
	}
}

// ByID fetches an experiment.
func ByID(id string) (Experiment, error) {
	var have []string
	for _, e := range Experiments() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
		have = append(have, e.ID)
	}
	return Experiment{}, fmt.Errorf("harness: no experiment %q (have %s)", id, strings.Join(have, ", "))
}

// newLab calibrates a fresh machine at the given P-state.
func newLab(o Options, p cpusim.PState) (*core.Stack, error) {
	reps := 0
	if o.Quick {
		reps = 2
	}
	return core.NewStack(p, o.Seed, rapl.DefaultNoise, o.Scale, reps)
}

// rig is one measured database configuration: an engine with TPC-H loaded on
// a freshly calibrated lab's machine, and the Eq. 1 profiler over that lab.
type rig struct {
	e    *engine.Engine
	prof *core.Profiler
}

// newRig calibrates a fresh lab at P-state p and loads the class into an
// engine of the given kind and knob setting. A row rig's planner is held to
// the row executor (Knobs.DisableVectorExec) from before the load, so its
// heaps are row-major, as the paper's engines' are; the others may run vector
// chains, over column heaps.
func newRig(o Options, p cpusim.PState, kind engine.Kind, setting engine.Setting, class tpch.SizeClass, row bool) (rig, error) {
	l, err := newLab(o, p)
	if err != nil {
		return rig{}, err
	}
	e := engine.New(kind, l.M, setting)
	e.Knobs.DisableVectorExec = row
	setup(e, class)
	return rig{e: e, prof: l.Profiler()}, nil
}

// loaded, when set, sees every engine an experiment has loaded TPC-H into
// (TestPaperRigsRowMajor reads their heap layouts through it).
var loaded func(*engine.Engine)

// setup loads the class into e: the one way an experiment loads TPC-H.
func setup(e *engine.Engine, class tpch.SizeClass) {
	tpch.Setup(e, class)
	if loaded != nil {
		loaded(e)
	}
}

// profile is warm-then-measure for an operator tree built by hand (the X8
// join lab's): run it once to warm, rebuild it and profile that run. SQL
// text goes through rig.sql.
func (r rig) profile(name string, build func(*engine.Engine) (exec.Operator, error)) (core.Breakdown, error) {
	plan, err := tpch.Warm(r.e, build)
	if err != nil {
		return core.Breakdown{}, err
	}
	var runErr error
	b := r.prof.Profile(name, func() {
		_, runErr = r.e.Run(plan)
	})
	return b, runErr
}

// representativeIDs is the default quick subset: scan (Q1, Q6), join-heavy
// (Q3), index-flavoured (Q4), aggregation (Q13).
var representativeIDs = []int{1, 3, 4, 6, 13}

// sqlSweep is the TPC-H sweep an experiment runs: every text, or under
// o.Quick only those whose number is listed.
func sqlSweep(o Options, quickIDs ...int) []tpch.SQLQuery {
	all := tpch.SQLQueries()
	if !o.Quick {
		return all
	}
	var out []tpch.SQLQuery
	for _, q := range all {
		if slices.Contains(quickIDs, q.ID) {
			out = append(out, q)
		}
	}
	return out
}

// shareHeader is the component header of every breakdown table: each
// component's name with "%" appended. Its length is its capacity, so every
// append to it copies.
var shareHeader = func() []string {
	out := make([]string, core.NumComponents)
	for i, c := range core.Components() {
		out[i] = c.String() + "%"
	}
	return out
}()

// shareCells renders a breakdown's component shares.
func shareCells(b core.Breakdown) []string {
	out := make([]string, 0, core.NumComponents)
	for _, c := range core.Components() {
		out = append(out, fmt.Sprintf("%.1f", b.Share(c)*100))
	}
	return out
}

// barGlyphs letters the components in a stacked bar: L=E_L1D, S=E_Reg2L1D,
// 2=E_L2, 3=E_L3, M=E_mem, P=E_pf, W=E_stall (wait), .=E_other.
var barGlyphs = [core.NumComponents]byte{'L', 'S', '2', '3', 'M', 'P', 'W', '.'}

// barWidth is the stacked-bar width in characters (each char ~1.67%).
const barWidth = 60

// bar renders one breakdown as an ASCII stacked bar, the textual analogue
// of the paper's figure bars.
func bar(b core.Breakdown) string {
	out := make([]byte, 0, barWidth+2)
	out = append(out, '|')
	used := 0
	for i, c := range core.Components() {
		n := int(b.Share(c)*barWidth + 0.5)
		if used+n > barWidth {
			n = barWidth - used
		}
		for j := 0; j < n; j++ {
			out = append(out, barGlyphs[i])
		}
		used += n
	}
	for used < barWidth {
		out = append(out, ' ')
		used++
	}
	return string(append(out, '|'))
}

// barLegend explains the glyphs once per chart.
const barLegend = "legend: L=E_L1D S=E_Reg2L1D 2=E_L2 3=E_L3 M=E_mem P=E_pf W=E_stall .=E_other"

// chart renders stacked bars labelled by each breakdown's name.
func chart(title string, bds []core.Breakdown) string {
	width := 0
	for _, b := range bds {
		width = max(width, len(b.Name))
	}
	var sb strings.Builder
	sb.WriteString("\n" + title + "\n" + barLegend + "\n")
	for _, b := range bds {
		fmt.Fprintf(&sb, "%-*s %s\n", width, b.Name, bar(b))
	}
	return sb.String()
}

// table renders rows as fixed-width text and CSV.
func table(title string, header []string, rows [][]string) (string, string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var text strings.Builder
	text.WriteString(title + "\n")
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				text.WriteString("  ")
			}
			fmt.Fprintf(&text, "%-*s", widths[i], c)
		}
		text.WriteString("\n")
	}
	writeRow(header)
	rule := make([]string, len(widths))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	writeRow(rule)
	for _, r := range rows {
		writeRow(r)
	}

	var csv strings.Builder
	csv.WriteString(strings.Join(header, ",") + "\n")
	for _, r := range rows {
		csv.WriteString(strings.Join(r, ",") + "\n")
	}
	return text.String(), csv.String()
}
