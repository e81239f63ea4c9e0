package harness

import (
	"fmt"
	"math"
	"strings"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/tpch"
)

// ReadmeJoinQuery is the wide-row join-plus-sort example the README walks
// through: a vector chain (two scans, a many-match hash join, a large sort)
// whose estimate X8 showed over-predicting by more than double. X9 pins it
// alongside the TPC-H sweep because it exercises the paths the chain
// estimator prices — the consumer-aware gather, the merge-locality
// comparator and the transition back to rows.
const ReadmeJoinQuery = `SELECT * FROM lineitem JOIN partsupp ON l_suppkey = ps_suppkey WHERE l_quantity < 2 ORDER BY ps_availqty DESC`

// RunExtensionAccuracy (X9) validates the cost model's predicted E_active
// against the measured E_active of every TPC-H query's optimizer-chosen
// plan: every query runs warm under the Eq. 1 profiler on the SQLite
// profile, the README join example rides along as a 23rd row, and the table
// reports the signed error per query plus the within-±25% count, then the
// same error by operator kind over the TPC-H plans' nodes. Rows also
// show the plan's E_L1D+E_Reg2L1D share, the paper's headline metric, and its
// vector-operator count, so a prediction error can be read against how much
// of the plan went batch-at-a-time. The same sweep on the other two engine
// profiles checks that the Figure 7 share ordering (SQLite > PostgreSQL >
// MySQL) survives optimizer-chosen plans.
func RunExtensionAccuracy(o Options) (Result, error) {
	o = o.effective()
	queries := sqlSweep(o, representativeIDs...)
	r, err := newRig(o, cpusim.PState36, engine.SQLite, o.Setting, o.Class, false)
	if err != nil {
		return Result{}, err
	}
	runs, rows, within, err := predVsMeas(r, queries)
	if err != nil {
		return Result{}, err
	}
	shares := map[engine.Kind]float64{engine.SQLite: avgL1DShare(runs)}
	// The README example rides last on the same rig, outside the 22-query
	// count.
	readme, err := r.sql(tpch.SQLQuery{ID: 0, Text: ReadmeJoinQuery})
	if err != nil {
		return Result{}, fmt.Errorf("README: %v", err)
	}
	total := len(runs)
	runs, rows = append(runs, readme), append(rows, readme.accuracyCells())
	worst := runs[0]
	for i, s := range runs {
		if math.Abs(s.errPct()) > math.Abs(worst.errPct()) {
			worst = s
		}
		rows[i] = append(rows[i], fmt.Sprintf("%.1f", s.B.L1DShare()*100), fmt.Sprintf("%d", s.vecOps()))
	}
	header := []string{"Query", "pred (mJ)", "meas (mJ)", "err%", "L1D+St%", "vec ops"}
	text, csv := table("Extension X9: optimizer accuracy — predicted vs measured E_active (SQLite, warm buffers)", header, rows)
	text += fmt.Sprintf("\nprediction within +/-25%%: %d/%d queries\n", within, total)
	text += fmt.Sprintf("README join example error: %+.1f%% (band +/-25%%)\n", readme.errPct())
	text += fmt.Sprintf("worst absolute error: %+.1f%% on %s\n", worst.errPct(), worst.name())

	// The Figure 7 cross-engine ordering, on optimizer-chosen plans: the
	// SQLite engine profile spends the largest E_L1D+E_Reg2L1D share,
	// PostgreSQL next, MySQL least. SQLite's share is the sweep above.
	for _, kind := range []engine.Kind{engine.PostgreSQL, engine.MySQL} {
		rk, err := newRig(o, cpusim.PState36, kind, o.Setting, o.Class, false)
		if err != nil {
			return Result{}, err
		}
		kindRuns, _, _, err := predVsMeas(rk, queries)
		if err != nil {
			return Result{}, fmt.Errorf("%s %v", kind, err)
		}
		shares[kind] = avgL1DShare(kindRuns)
	}
	mark := "ok"
	if !(shares[engine.SQLite] > shares[engine.PostgreSQL] && shares[engine.PostgreSQL] > shares[engine.MySQL]) {
		mark = "VIOLATED"
	}
	text += fmt.Sprintf("avg L1D+Reg2L1D share by engine: SQLite %.1f%% > PostgreSQL %.1f%% > MySQL %.1f%% (Figure 7 ordering %s)\n",
		shares[engine.SQLite]*100, shares[engine.PostgreSQL]*100, shares[engine.MySQL]*100, mark)
	text += "\n" + errorByKind(runs[:total])
	return Result{ID: "X9", Title: "Extension X9 (optimizer accuracy sweep)", Text: text, CSV: csv}, nil
}

// avgL1DShare is the unweighted mean L1D+Reg2L1D share of a sweep.
func avgL1DShare(runs []sqlRun) float64 {
	var sum float64
	for _, s := range runs {
		sum += s.B.L1DShare()
	}
	return sum / float64(len(runs))
}

// opKinds are the operator kinds errorByKind reads the prediction error by,
// in table order.
var opKinds = []string{"scan", "index fetch", "join probe", "aggregate", "sort", "other"}

// opKind names the kind of a plan node: a heap scan, an index range scan
// with its heap fetches, a hash or index join's probe (and build), a hash
// aggregate, a sort, or other (projection, prune, limit).
func opKind(n *plan.Node) string {
	t := n.Title()
	switch {
	case strings.HasPrefix(t, "SeqScan"):
		return "scan"
	case strings.HasPrefix(t, "IndexScan"):
		return "index fetch"
	case isJoin(n):
		return "join probe"
	case strings.HasPrefix(t, "HashAggregate"):
		return "aggregate"
	case strings.HasPrefix(t, "Sort"):
		return "sort"
	}
	return "other"
}

// kindSums is one operator kind's share of a sweep: its nodes, their summed
// estimates and the E_active the measured runs attribute to them.
type kindSums struct {
	nodes      int
	pred, meas float64
}

// sumByKind folds every node of the runs' measured plans into its kind: each
// node's E≈ (EstEJ) and its E from the run's meters, the two numbers an
// EXPLAIN ENERGY line prints for it. Over all kinds the sums are the runs'
// predicted and measured totals.
func sumByKind(runs []sqlRun) map[string]kindSums {
	sums := make(map[string]kindSums)
	for _, s := range runs {
		at := s.Plan.Attribute(s.Meters, s.B)
		var walk func(n *plan.Node)
		walk = func(n *plan.Node) {
			k := sums[opKind(n)]
			k.nodes++
			k.pred += n.EstEJ
			k.meas += at.EJ[n]
			sums[opKind(n)] = k
			for _, kid := range n.Kids {
				walk(kid)
			}
		}
		walk(s.Plan.Root)
	}
	return sums
}

// errorByKind renders the prediction error by operator kind and names the
// kind with the largest absolute error, the first one for the cost model to
// fit.
func errorByKind(runs []sqlRun) string {
	sums := sumByKind(runs)
	var total float64
	for _, k := range sums {
		total += k.meas
	}
	var rows [][]string
	worst := ""
	for _, name := range opKinds {
		k, ok := sums[name]
		if !ok {
			continue
		}
		rows = append(rows, []string{
			name, fmt.Sprint(k.nodes),
			fmt.Sprintf("%.3f", k.pred*1e3), fmt.Sprintf("%.3f", k.meas*1e3),
			fmt.Sprintf("%+.1f", relErrPct(k.pred, k.meas)),
			fmt.Sprintf("%.1f", k.meas/total*100),
		})
		if worst == "" || math.Abs(k.pred-k.meas) > math.Abs(sums[worst].pred-sums[worst].meas) {
			worst = name
		}
	}
	text, _ := table(fmt.Sprintf("prediction error by operator kind (every node of the %d TPC-H plans: E≈ vs its metered E)", len(runs)),
		[]string{"Kind", "nodes", "pred (mJ)", "meas (mJ)", "err%", "meas share%"}, rows)
	w := sums[worst]
	return text + fmt.Sprintf("largest absolute error by kind: %s, %+.3f mJ (%+.1f%%)\n", worst, (w.pred-w.meas)*1e3, relErrPct(w.pred, w.meas))
}

// relErrPct is the signed error of pred against meas in per cent, 0 for a
// kind that measured nothing (a Limit simulates no work).
func relErrPct(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	return (pred/meas - 1) * 100
}
