package harness

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/db/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/quick/<ID>.txt from the current quick outputs")

func quickOpts() Options {
	o := DefaultOptions()
	o.Quick = true
	return o
}

// quickResults keeps each experiment's quick result, so a test that compares
// experiments with each other does not run them again; quickLoads keeps, per
// experiment, the heap layout of every table of every engine it loaded.
var (
	quickResults = map[string]Result{}
	quickLoads   = map[string][]string{}
)

// runQuick runs one experiment in quick mode and pins its rendered text to
// testdata/quick/<ID>.txt, so a change that moves any cell of any experiment
// shows up as a golden diff in `make test` rather than in a stale
// EXPERIMENTS.md. The simulation is deterministic, but the goldens were
// recorded on amd64: elsewhere the compiler may fuse a multiply-add and move a
// last digit, so only the shape checks of the calling test run there.
func runQuick(t *testing.T, id string) Result {
	t.Helper()
	skipIfShort(t)
	if res, ok := quickResults[id]; ok {
		return res
	}
	exp, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	loaded = func(e *engine.Engine) {
		for _, name := range tpchTables {
			layout := "rows"
			if e.MustTable(name).File.Data().Layout() == storage.Columns {
				layout = "columns"
			}
			quickLoads[id] = append(quickLoads[id], fmt.Sprintf("%v %s: %s", e.Kind, name, layout))
		}
	}
	res, err := exp.Run(quickOpts())
	loaded = nil
	if err != nil {
		t.Fatal(err)
	}
	quickResults[id] = res
	if runtime.GOARCH != "amd64" {
		return res
	}
	path := filepath.Join("testdata", "quick", res.ID+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(res.Text), 0o644); err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with go test ./internal/harness -update)", err)
	}
	got, wantLines := strings.Split(res.Text, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d differs from %s:\n got: %s\nwant: %s", res.ID, i+1, path, g, w)
		}
	}
	return res
}

// skipIfShort skips a simulation sweep in -short mode. The harness runs
// everything on one goroutine — there is nothing for the race detector to
// observe — yet the sweeps dominate the wall clock of a -race pass, so
// `make race` runs with -short and keeps full coverage of the concurrent
// packages instead.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation sweep skipped in -short mode")
	}
}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T5", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F13", "X1", "X2", "X3", "X4", "X5", "X7", "X8", "X9"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
	}
	if _, err := ByID("f7"); err != nil {
		t.Error("ByID should be case-insensitive")
	}
	if _, err := ByID("F99"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestTable1Quick(t *testing.T) {
	res := runQuick(t, "T1")
	for _, name := range []string{"B_L1D_list", "B_L1D_array", "B_L2", "B_L3", "B_mem", "B_Reg2L1D", "B_add", "B_nop"} {
		if !strings.Contains(res.Text, name) {
			t.Errorf("Table 1 missing %s", name)
		}
	}
	if !strings.Contains(res.CSV, "IPC") {
		t.Error("CSV header missing")
	}
}

func TestTable2Quick(t *testing.T) {
	res := runQuick(t, "T2")
	if !strings.Contains(res.Text, "dE_L1D") || !strings.Contains(res.Text, "dE_mem") {
		t.Fatalf("Table 2 rows missing:\n%s", res.Text)
	}
}

func TestTable3Quick(t *testing.T) {
	res := runQuick(t, "T3")
	if !strings.Contains(res.Text, "B_mem_nop") || !strings.Contains(res.Text, "average") {
		t.Fatalf("Table 3 incomplete:\n%s", res.Text)
	}
}

func TestTable5Quick(t *testing.T) {
	res := runQuick(t, "T5")
	if !strings.Contains(res.Text, "E_stall") || !strings.Contains(res.Text, "P36->P24") {
		t.Fatalf("Table 5 incomplete:\n%s", res.Text)
	}
}

func TestFigure6Quick(t *testing.T) {
	res := runQuick(t, "F6")
	for _, s := range []string{"index scan", "table scan", "SQLite", "MySQL", "PostgreSQL"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("Figure 6 missing %q", s)
		}
	}
}

func TestFigure7Quick(t *testing.T) {
	res := runQuick(t, "F7")
	if !strings.Contains(res.Text, "average") {
		t.Fatalf("Figure 7 missing averages:\n%s", res.Text)
	}
}

func TestFigure10Quick(t *testing.T) {
	res := runQuick(t, "F10")
	for _, w := range []string{"Mcf", "Libquantum", "Bzip2"} {
		if !strings.Contains(res.Text, w) {
			t.Errorf("Figure 10 missing %s", w)
		}
	}
}

func TestFigure13Quick(t *testing.T) {
	res := runQuick(t, "F13")
	if !strings.Contains(res.Text, "DTCM peak saving") {
		t.Fatalf("Figure 13 incomplete:\n%s", res.Text)
	}
}

func TestFigure5Quick(t *testing.T) {
	res := runQuick(t, "F5")
	if !strings.Contains(res.Text, "90-100") {
		t.Fatalf("Figure 5 missing buckets:\n%s", res.Text)
	}
}

func TestFigure8Quick(t *testing.T) {
	res := runQuick(t, "F8")
	if !strings.Contains(res.Text, "SQLite-100MB") {
		t.Fatalf("Figure 8 missing size rows:\n%s", res.Text)
	}
}

func TestFigure9Quick(t *testing.T) {
	res := runQuick(t, "F9")
	for _, s := range []string{"PostgreSQL-small", "MySQL-large"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("Figure 9 missing %q", s)
		}
	}
}

func TestFigure11Quick(t *testing.T) {
	res := runQuick(t, "F11")
	for _, s := range []string{"SQLite-Pstate36", "SQLite-Pstate12"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("Figure 11 missing %q", s)
		}
	}
}

func TestExtensionNoSQLQuick(t *testing.T) {
	res := runQuick(t, "X1")
	for _, s := range []string{"HashKV", "LSMKV", "ycsb-c"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("X1 missing %q:\n%s", s, res.Text)
		}
	}
}

func TestExtensionDVFSQuick(t *testing.T) {
	res := runQuick(t, "X2")
	for _, s := range []string{"index scan", "table scan", "stall-aware"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("X2 missing %q:\n%s", s, res.Text)
		}
	}
}

func TestExtensionWritesQuick(t *testing.T) {
	res := runQuick(t, "X4")
	for _, s := range []string{"bulk update", "WAL recs", "SQLite"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("X4 missing %q:\n%s", s, res.Text)
		}
	}
}

func TestExtensionArchSweepQuick(t *testing.T) {
	res := runQuick(t, "X5")
	for _, s := range []string{"stock", "Arch 1", "-40% L1D energy"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("X5 missing %q:\n%s", s, res.Text)
		}
	}
}

// TestExtensionOptimizerQuick checks the optimizer's side of X9: every row
// carries its plan's L1D+Reg2L1D share, and the per-engine share line holds
// the Figure 7 ordering on optimizer-chosen plans.
func TestExtensionOptimizerQuick(t *testing.T) {
	res := runQuick(t, "X9")
	for q, share := range column(t, res, "L1D+St%") {
		if v, err := strconv.ParseFloat(share, 64); err != nil || v <= 0 || v >= 100 {
			t.Errorf("X9 %s: L1D+St%% cell %q is not a share", q, share)
		}
	}
	if !strings.Contains(res.Text, "avg L1D+Reg2L1D share by engine") || !strings.Contains(res.Text, "Figure 7 ordering ok") {
		t.Errorf("X9 missing the per-engine Figure 7 ordering line:\n%s", res.Text)
	}
}

func TestExtensionVectorQuick(t *testing.T) {
	res := runQuick(t, "X7")
	for _, s := range []string{"Q1", "Q6", "vector operator", "measured delta"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("X7 missing %q:\n%s", s, res.Text)
		}
	}
}

// TestExtensionAccuracyQuick checks X9's shape: the sweep rows, the README
// join example row, and the within-band summary lines all render. It also
// pins the acceptance band on the README join example itself — the query
// whose 2x over-prediction motivated the chain estimator rework — so a
// cost-model regression that pushes it back out of +/-25% fails here, not
// only in the full X9 sweep.
func TestExtensionAccuracyQuick(t *testing.T) {
	res := runQuick(t, "X9")
	for _, s := range []string{"Q1", "Q6", "README", "prediction within", "README join example error", "worst absolute error"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("X9 missing %q:\n%s", s, res.Text)
		}
	}
	readme := ""
	for _, line := range strings.Split(res.Text, "\n") {
		if strings.HasPrefix(line, "README join example error:") {
			readme = line
		}
	}
	var errPct float64
	if _, err := fmt.Sscanf(readme, "README join example error: %f%%", &errPct); err != nil {
		t.Fatalf("cannot parse README error line %q: %v", readme, err)
	}
	if math.Abs(errPct) > 25 {
		t.Errorf("README join example predicted E_active off by %+.1f%%, want within +/-25%%", errPct)
	}
}

// TestExtensionJoinQuick checks X8's acceptance shape: Q9 lands in the
// join-dominated subset, the subset's E_active moves down under the vector
// join/sort, and the per-operator meter partition holds on the mixed plan.
func TestExtensionJoinQuick(t *testing.T) {
	res := runQuick(t, "X8")
	for _, s := range []string{"Q9", "join-dominated subset", "join lab", "meter partition", "sum exactly"} {
		if !strings.Contains(res.Text, s) {
			t.Errorf("X8 missing %q:\n%s", s, res.Text)
		}
	}
	// Q9 must be inside the subset line, the subset delta negative, and the
	// join lab must show the batch join cutting E_active.
	subset := ""
	for _, line := range strings.Split(res.Text, "\n") {
		if strings.HasPrefix(line, "join-dominated subset") {
			subset = line
		}
		if strings.HasPrefix(line, "subset E_active") && !strings.Contains(line, "(-") {
			t.Errorf("X8 subset shows no E_active reduction: %s", line)
		}
		if strings.HasPrefix(line, "hash_join") && !strings.Contains(line, "-") {
			t.Errorf("X8 join lab shows no E_active reduction: %s", line)
		}
	}
	if !strings.Contains(subset, "Q9") {
		t.Errorf("Q9 not in the join-dominated subset: %s", subset)
	}
}

func TestExtensionITCMQuick(t *testing.T) {
	res := runQuick(t, "X3")
	if !strings.Contains(res.Text, "+ DTCM + ITCM") {
		t.Fatalf("X3 incomplete:\n%s", res.Text)
	}
}

// column reads one column of an experiment's CSV, keyed by each row's first
// cell.
func column(t *testing.T, res Result, name string) map[string]string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(res.CSV), "\n")
	idx := slices.Index(strings.Split(lines[0], ","), name)
	if idx < 0 {
		t.Fatalf("%s has no column %q", res.ID, name)
	}
	out := make(map[string]string)
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		out[cells[0]] = cells[idx]
	}
	return out
}

// TestSQLSweepConsistency pins what rig.sql buys: one statement on one
// configuration prints the same joules in every experiment, and what a row
// says about its plan is read off the plan that produced its joules. X7 and
// X9 both sweep the SQL texts on a SQLite rig of the same seed, so their
// measured cells must agree string for string; and a sweep run here must
// reproduce X9's cells from the sqlRun it hands back.
func TestSQLSweepConsistency(t *testing.T) {
	x7 := column(t, runQuick(t, "X7"), "E_vec (mJ)")
	x9 := runQuick(t, "X9")
	x9meas, x9vecOps := column(t, x9, "meas (mJ)"), column(t, x9, "vec ops")

	o := quickOpts().effective()
	r, err := newRig(o, cpusim.PState36, engine.SQLite, o.Setting, o.Class, false)
	if err != nil {
		t.Fatal(err)
	}
	runs, _, _, err := predVsMeas(r, sqlSweep(o, representativeIDs...))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range runs {
		q := s.name()
		if x7[q] != x9meas[q] {
			t.Errorf("%s: X7 E_vec %s, X9 meas %s", q, x7[q], x9meas[q])
		}
		if got := fmt.Sprintf("%.3f", s.B.EActive*1e3); got != x9meas[q] {
			t.Errorf("%s: this sweep measured %s, X9 %s", q, got, x9meas[q])
		}
		vecOps := 0
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			if n.Mode == plan.ModeVector {
				vecOps++
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(s.Plan.Root)
		if got := fmt.Sprint(vecOps); got != x9vecOps[q] {
			t.Errorf("%s: measured plan has %s vector operators, X9 prints %s", q, got, x9vecOps[q])
		}
	}
}

// TestErrorByKindPartitionsTheSweep: X9's table by operator kind folds every
// node of every measured plan into exactly one kind, so over the kinds the
// estimates sum to the runs' predictions and the metered energies to their
// measured E_active.
func TestErrorByKindPartitionsTheSweep(t *testing.T) {
	o := quickOpts().effective()
	r, err := newRig(o, cpusim.PState36, engine.SQLite, o.Setting, o.Class, false)
	if err != nil {
		t.Fatal(err)
	}
	runs, _, _, err := predVsMeas(r, sqlSweep(o, 3, 13))
	if err != nil {
		t.Fatal(err)
	}
	var pred, meas, kindPred, kindMeas float64
	for _, s := range runs {
		pred += s.Pred
		meas += s.B.EActive
	}
	sums := sumByKind(runs)
	for name, k := range sums {
		if !slices.Contains(opKinds, name) {
			t.Errorf("kind %q is not one the table prints", name)
		}
		kindPred += k.pred
		kindMeas += k.meas
	}
	if math.Abs(kindPred/pred-1) > 1e-9 || math.Abs(kindMeas/meas-1) > 1e-9 {
		t.Fatalf("kinds sum to pred %g, meas %g J; the runs to %g, %g J", kindPred, kindMeas, pred, meas)
	}
	if sums["join probe"].nodes == 0 || sums["sort"].nodes == 0 {
		t.Fatalf("Q3 and Q13 have joins and sorts, the kinds hold %+v", sums)
	}
}

// tpchTables names the tables tpch.Load creates.
var tpchTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// TestPaperRigsRowMajor: every engine a figure or table of the paper loads
// lays its heaps out row-major, as the paper's engines do, so the column
// runs the batch engine reads move none of their cells. Each experiment's
// rigs set DisableVectorExec before they load, which is what picks the
// layout (engine.CreateTable).
func TestPaperRigsRowMajor(t *testing.T) {
	loads := 0
	for _, exp := range Experiments() {
		if exp.ID[0] != 'F' && exp.ID[0] != 'T' {
			continue
		}
		runQuick(t, exp.ID)
		for _, l := range quickLoads[exp.ID] {
			loads++
			if !strings.HasSuffix(l, ": rows") {
				t.Errorf("%s: %s", exp.ID, l)
			}
		}
	}
	if loads == 0 {
		t.Fatal("no figure or table loaded an engine")
	}
}
