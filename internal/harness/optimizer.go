package harness

import (
	"fmt"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
)

// RunExtensionOptimizer (X6) validates the energy-aware logical-plan
// optimizer against the paper's measurement stack. For every TPC-H query
// text it compares the cost model's predicted E_active with the measured
// E_active of the optimizer's chosen plan (warm-buffer run under the Eq. 1
// profiler) and reports the plan's E_L1D+E_Reg2L1D share, the paper's
// headline metric. The same sweep on the other two engine profiles checks the
// Figure 7 share ordering (SQLite > PostgreSQL > MySQL) survives
// optimizer-chosen plans. The SQLite sweep is X9's: same rig, same statements
// in the same order.
func RunExtensionOptimizer(o Options) (Result, error) {
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
	for i, s := range runs {
		rows[i] = append(rows[i], fmt.Sprintf("%.1f", s.B.L1DShare()*100))
	}
	header := []string{"Query", "pred (mJ)", "meas (mJ)", "err%", "L1D+St%"}
	text, csv := table("Extension X6: energy-aware optimizer — predicted vs measured E_active (SQLite, warm buffers)", header, rows)
	text += fmt.Sprintf("\nprediction within +/-25%%: %d/%d queries\n", within, len(queries))
	shares := map[engine.Kind]float64{engine.SQLite: avgL1DShare(runs)}
	text += fmt.Sprintf("avg L1D+Reg2L1D share of optimizer plans (SQLite): %.1f%%\n", shares[engine.SQLite]*100)

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
	return Result{ID: "X6", Title: "Extension X6 (energy-aware optimizer)", Text: text, CSV: csv}, nil
}

// avgL1DShare is the unweighted mean L1D+Reg2L1D share of a sweep.
func avgL1DShare(runs []sqlRun) float64 {
	var sum float64
	for _, s := range runs {
		sum += s.B.L1DShare()
	}
	return sum / float64(len(runs))
}
