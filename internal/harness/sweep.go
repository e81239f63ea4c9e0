package harness

import (
	"fmt"
	"math"
	"strings"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/tpch"
)

// sqlRun is one SQL text measured on one rig.
type sqlRun struct {
	Query tpch.SQLQuery
	// Plan is the plan that was measured: whatever a table says about the
	// plan (operator modes, join share, per-operator meters) is read off
	// this object, never off a second planning of the text.
	Plan *plan.Prepared
	// Pred is the cost model's predicted E_active of Plan, in joules.
	Pred float64
	B    core.Breakdown
	// Meters are the per-operator meters of the measured run (metering
	// reads the counters and simulates nothing).
	Meters map[*plan.Node]*exec.Meter
}

// sql is the one place the harness parses, plans and profiles SQL text. It
// plans and runs the text once to warm the buffer pool, then re-plans — so
// the cost model's residency estimates see the warm pool, matching what it is
// asked to predict — and profiles the re-planned run. The warm-up must stay
// outside the profiler: a profiled run draws from the meter's noise stream
// and would shift every later cell.
func (r rig) sql(q tpch.SQLQuery) (sqlRun, error) {
	stmt, err := sql.Parse(q.Text)
	if err != nil {
		return sqlRun{}, err
	}
	build := func() (p *plan.Prepared, op exec.Operator, meters map[*plan.Node]*exec.Meter, err error) {
		if p, err = plan.Prepare(r.e, stmt); err == nil {
			op, meters, err = p.BuildMetered()
		}
		return p, op, meters, err
	}
	_, warm, _, err := build()
	if err != nil {
		return sqlRun{}, err
	}
	if _, err := exec.Collect(warm); err != nil {
		return sqlRun{}, err
	}
	p, op, meters, err := build()
	if err != nil {
		return sqlRun{}, err
	}
	s := sqlRun{Query: q, Plan: p, Pred: p.PredictedEJ(), Meters: meters}
	var runErr error
	s.B = r.prof.Profile(s.name(), func() {
		_, runErr = exec.Collect(op)
	})
	return s, runErr
}

// name is the run's row label; ID 0 is the README join example X9 appends to
// the TPC-H sweep.
func (s sqlRun) name() string {
	if s.Query.ID == 0 {
		return "README"
	}
	return fmt.Sprintf("Q%d", s.Query.ID)
}

// errPct is the signed prediction error against the measured E_active.
func (s sqlRun) errPct() float64 { return (s.Pred/s.B.EActive - 1) * 100 }

// nodes folds the measured plan: how many operators pred accepts, and the
// predicted energy (each node's exclusive estimate) they carry.
func (s sqlRun) nodes(pred func(*plan.Node) bool) (count int, estEJ float64) {
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if pred(n) {
			count++
			estEJ += n.EstEJ
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(s.Plan.Root)
	return count, estEJ
}

func isVector(n *plan.Node) bool { return n.Mode == plan.ModeVector }

// vecOps counts the measured plan's vector-mode operators.
func (s sqlRun) vecOps() int {
	n, _ := s.nodes(isVector)
	return n
}

func isJoin(n *plan.Node) bool {
	t := n.Title()
	return strings.HasPrefix(t, "HashJoin") || strings.HasPrefix(t, "IndexJoin")
}

func isVectorJoinOrSort(n *plan.Node) bool {
	return isVector(n) && (isJoin(n) || strings.HasPrefix(n.Title(), "Sort"))
}

// accuracyCells renders the four cells every X9 row starts with: query,
// predicted and measured E_active, signed error.
func (s sqlRun) accuracyCells() []string {
	return []string{
		s.name(),
		fmt.Sprintf("%.3f", s.Pred*1e3),
		fmt.Sprintf("%.3f", s.B.EActive*1e3),
		fmt.Sprintf("%+.1f", s.errPct()),
	}
}

// predVsMeas runs the queries in order on the rig, one accuracyCells row each.
// within counts the runs predicted within ±25% of the measurement.
func predVsMeas(r rig, queries []tpch.SQLQuery) (runs []sqlRun, rows [][]string, within int, err error) {
	for _, q := range queries {
		s, err := r.sql(q)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("Q%d: %v", q.ID, err)
		}
		if math.Abs(s.errPct()) <= 25 {
			within++
		}
		runs = append(runs, s)
		rows = append(rows, s.accuracyCells())
	}
	return runs, rows, within, nil
}

// vecRowHeader names the six cells vecRowCells renders.
var vecRowHeader = []string{"E_vec (mJ)", "E_row (mJ)", "dE%", "L1D+St% vec", "L1D+St% row", "dShare (pp)"}

// vecRowCells compares one workload measured batch-at-a-time and row-at-a-time.
func vecRowCells(bv, br core.Breakdown) []string {
	return []string{
		fmt.Sprintf("%.3f", bv.EActive*1e3),
		fmt.Sprintf("%.3f", br.EActive*1e3),
		fmt.Sprintf("%+.1f", (bv.EActive/br.EActive-1)*100),
		fmt.Sprintf("%.1f", bv.L1DShare()*100),
		fmt.Sprintf("%.1f", br.L1DShare()*100),
		fmt.Sprintf("%+.1f", (bv.L1DShare()-br.L1DShare())*100),
	}
}

// vecRowPair is one query measured on both rigs of a vector-vs-row sweep.
type vecRowPair struct{ vec, row sqlRun }

// energyLine renders "<label> E_active: vector … vs row … (…%)" over the pairs.
func energyLine(label string, pairs []vecRowPair) string {
	var v, r float64
	for _, p := range pairs {
		v += p.vec.B.EActive
		r += p.row.B.EActive
	}
	return fmt.Sprintf("%s E_active: vector %.3f mJ vs row %.3f mJ (%+.1f%%)\n", label, v*1e3, r*1e3, (v/r-1)*100)
}

// shareLine renders the pairs' average L1D+Reg2L1D share on both sides.
func shareLine(label string, pairs []vecRowPair) string {
	var v, r float64
	for _, p := range pairs {
		v += p.vec.B.L1DShare()
		r += p.row.B.L1DShare()
	}
	n := float64(len(pairs))
	return fmt.Sprintf("%s L1D+Reg2L1D share: vector %.1f%% vs row %.1f%% (measured delta %+.1f pp)\n",
		label, v/n*100, r/n*100, (v-r)/n*100)
}

// vecRowSweep is the outcome of vectorVsRow: both rigs (still warm, for
// follow-up measurements on the same machines), the per-query pairs and the
// rendered table.
type vecRowSweep struct {
	vec, row rig
	pairs    []vecRowPair
	header   []string
	rows     [][]string
}

// vectorVsRow runs the SQL sweep twice on identically calibrated rigs of one
// engine kind — optimizer free to choose vector operators on one, the
// DisableVectorExec knob forcing the row path on the other — alternating per
// query. Each table row is the query, the experiment's own cells (extraHeader
// names them, extra renders them from the measured pair) and vecRowCells.
func vectorVsRow(o Options, kind engine.Kind, queries []tpch.SQLQuery,
	extraHeader []string, extra func(vecRowPair) []string) (*vecRowSweep, error) {
	sw := &vecRowSweep{header: append(append([]string{"Query"}, extraHeader...), vecRowHeader...)}
	var err error
	if sw.vec, err = newRig(o, cpusim.PState36, kind, o.Setting, o.Class, false); err != nil {
		return nil, err
	}
	if sw.row, err = newRig(o, cpusim.PState36, kind, o.Setting, o.Class, true); err != nil {
		return nil, err
	}
	for _, q := range queries {
		var p vecRowPair
		if p.vec, err = sw.vec.sql(q); err != nil {
			return nil, fmt.Errorf("Q%d vector: %v", q.ID, err)
		}
		if p.row, err = sw.row.sql(q); err != nil {
			return nil, fmt.Errorf("Q%d row: %v", q.ID, err)
		}
		sw.pairs = append(sw.pairs, p)
		sw.rows = append(sw.rows, append(append([]string{p.vec.name()}, extra(p)...), vecRowCells(p.vec.B, p.row.B)...))
	}
	return sw, nil
}
