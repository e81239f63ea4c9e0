package plan

import (
	"math"
	"strings"
	"testing"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/memsim"
	"energydb/internal/tpch"
)

// runMetered plans and drains one TPC-H text and returns the plan, its
// meters and the statement's active energy on the engine's machine.
func runMetered(t *testing.T, e *engine.Engine, id int) (*Prepared, map[*Node]*exec.Meter, float64) {
	t.Helper()
	q, err := tpch.SQLByID(id)
	if err != nil {
		t.Fatal(err)
	}
	p := prepare(t, e, q.Text)
	op, meters, err := p.BuildMetered()
	if err != nil {
		t.Fatal(err)
	}
	before := e.M.Hier.Counters()
	if _, err := exec.Drain(op); err != nil {
		t.Fatal(err)
	}
	return p, meters, e.M.Profile.Energy.Active(e.M.Hier.Counters().Sub(before), e.M.PState()).Total()
}

// loadRowMajor loads class into e's tables laid out row-major, as under
// DisableVectorExec, and then lets the planner choose vector operators
// again: every lineitem scan reads whole rows, 1.06 × L3 at 100MB on this
// profile, so consecutive vector scans of it take turns in direction. A
// column heap's scans read only their columns, which fit L3.
func loadRowMajor(e *engine.Engine, class tpch.SizeClass) {
	e.Knobs.DisableVectorExec = true
	tpch.Setup(e, class)
	e.Knobs.DisableVectorExec = false
}

// TestAlternatingScanPrice holds seqLines' price of a vector scan over a heap
// longer than L3 — PostgreSQL's lineitem at 100MB, 1.06 × L3 of lines — to
// the two measurements it was fitted to. Back to back, Q1's scan refills
// 0.09 of its lines walking down and 0.91 walking up again: the price is the
// pair's mean, and each pass is far from it, which is pinned too so that
// nobody reads one run of Q1 against the estimate. In the benchmark's
// statement mix, where index fetches of other statements land between two
// scans, the scan and the whole statement stay within the X9 band.
func TestAlternatingScanPrice(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the 100MB class")
	}
	e := engine.New(engine.PostgreSQL, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	loadRowMajor(e, tpch.Size100MB)
	e.M.Hier.SetPrefetchEnabled(true)
	active := func(c memsim.Counters) float64 { return e.M.Profile.Energy.Active(c, e.M.PState()).Total() }

	lineitem := e.MustTable("lineitem")
	c := newCoster(e)
	a := c.newEst()
	whole := &Node{Kind: opSeqScan, Table: lineitem}
	c.scanHeap(a, whole, true)
	predPf := float64(a.counters().PrefetchL3)
	row := c.newEst()
	c.scanHeap(row, whole, false)
	if got := float64(row.counters().PrefetchL3); got < 1.9*predPf {
		t.Errorf("a row scan, which always walks front to back, is priced at %.0f DRAM→L3 prefetches against the vector scan's %.0f", got, predPf)
	}

	// Back to back: a cold pass and one more to settle, then a pair.
	var pf, ej [2]float64
	var scan *Node
	for i := 0; i < 4; i++ {
		p, meters, _ := runMetered(t, e, 1)
		scan = scans(p.Root)[0]
		if scan.Kind != opSeqScan || scan.Mode != ModeVector || scan.TableName != "lineitem" {
			t.Fatalf("Q1 does not read lineitem through a vector sequential scan:\n%s", explainText(p))
		}
		own := meters[scan].Own()
		pf[i%2], ej[i%2] = float64(own.PrefetchL3), active(own)
	}
	t.Logf("back to back: scan refills %.0f / %.0f lines for %s / %s; predicted %.0f and %s",
		pf[1], pf[0], fmtEnergy(ej[1]), fmtEnergy(ej[0]), predPf, fmtEnergy(scan.EstEJ))
	if err := relErr(predPf, (pf[0]+pf[1])/2); math.Abs(err) > 0.25 {
		t.Errorf("predicted %.0f DRAM→L3 prefetches, the pair's mean is %.0f (%+.1f%%)", predPf, (pf[0]+pf[1])/2, err*100)
	}
	if err := relErr(scan.EstEJ, (ej[0]+ej[1])/2); math.Abs(err) > 0.25 {
		t.Errorf("%s predicted %s, the pair's mean is %s (%+.1f%%)", scan.Title(), fmtEnergy(scan.EstEJ), fmtEnergy((ej[0]+ej[1])/2), err*100)
	}
	if cheap, dear := math.Min(pf[0], pf[1]), math.Max(pf[0], pf[1]); cheap > 0.25*predPf || dear < 1.6*predPf {
		t.Errorf("the pair refills %.0f and %.0f lines; want the two passes far apart (about 0.17 and 1.83 of the predicted %.0f)", cheap, dear, predPf)
	}

	// The benchmark's mix: its cycle of ten in one fixed order, one cycle to
	// settle and three measured.
	cycle := []int{6, 14, 3, 5, 1, 6, 3, 6, 5, 1}
	var scanPred, scanMeas, stmtPred, stmtMeas float64
	for round := 0; round < 4; round++ {
		for _, id := range cycle {
			p, meters, total := runMetered(t, e, id)
			if id != 1 || round == 0 {
				continue
			}
			scan := scans(p.Root)[0]
			scanPred += scan.EstEJ
			scanMeas += active(meters[scan].Own())
			stmtPred += p.PredictedEJ()
			stmtMeas += total
		}
	}
	t.Logf("in the mix: scan predicted %s measured %s; Q1 predicted %s measured %s (means of 6)",
		fmtEnergy(scanPred/6), fmtEnergy(scanMeas/6), fmtEnergy(stmtPred/6), fmtEnergy(stmtMeas/6))
	if err := relErr(scanPred, scanMeas); math.Abs(err) > 0.25 {
		t.Errorf("in the mix the scan is predicted %+.1f%% off its meter", err*100)
	}
	if err := relErr(stmtPred, stmtMeas); math.Abs(err) > 0.25 {
		t.Errorf("in the mix Q1 is predicted %+.1f%% off its measurement", err*100)
	}
}

// TestExplainEnergySaysOrder: the measured line of a vector sequential scan
// that walked its heap back to front says so, so that a reader comparing two
// EXPLAIN ENERGY runs of one statement can tell why they differ; plain
// EXPLAIN, which the goldens pin, never does.
func TestExplainEnergySaysOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the 100MB class")
	}
	st, err := core.NewStack(cpusim.PState36, 1, 0, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.PostgreSQL, st.M, engine.SettingBaseline)
	loadRowMajor(e, tpch.Size100MB)
	var joules [2]float64
	for run, want := range []bool{false, true} {
		p := prepare(t, e, "SELECT COUNT(*), SUM(l_quantity) FROM lineitem")
		rows, _, b, err := p.ExplainEnergy(st.Profiler())
		if err != nil {
			t.Fatal(err)
		}
		joules[run] = b.EActive
		var text []string
		for _, r := range rows {
			text = append(text, r[0].S)
		}
		measured := strings.Join(text, "\n")
		if got := strings.Contains(measured, "SeqScan lineitem mode=vector order=reverse  (rows="); got != want {
			t.Errorf("run %d: order=reverse shown %v, want %v:\n%s", run, got, want, measured)
		}
		if plain := explainText(p); strings.Contains(plain, "order=") {
			t.Errorf("plain EXPLAIN names a scan order:\n%s", plain)
		}
	}
	if joules[1] > 0.6*joules[0] {
		t.Errorf("the back-to-front run measured %s after %s front to back", fmtEnergy(joules[1]), fmtEnergy(joules[0]))
	}
}
