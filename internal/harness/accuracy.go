package harness

import (
	"fmt"
	"math"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
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
// reports the signed error per query plus the within-±25% count. Rows also
// show the plan's E_L1D+E_Reg2L1D share, the paper's headline metric, and its
// vector-operator count, so a prediction error can be read against how much
// of the plan went batch-at-a-time. The same sweep on the other two engine
// profiles checks that the Figure 7 share ordering (SQLite > PostgreSQL >
// MySQL) survives optimizer-chosen plans.
func RunExtensionAccuracy(o Options) (Result, error) {
	o = o.effective()
	queries := sqlSweep(o, representativeIDs...)
	r, err := newRig(o, cpusim.PState36, engine.SQLite, o.Setting, o.Class)
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
		rk, err := newRig(o, cpusim.PState36, kind, o.Setting, o.Class)
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
