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
// alongside the TPC-H sweep because it exercises exactly the paths the
// chain-wise estimator fixes target — the consumer-aware gather, the
// merge-locality comparator and the boundary transition charge.
const ReadmeJoinQuery = `SELECT * FROM lineitem JOIN partsupp ON l_suppkey = ps_suppkey WHERE l_quantity < 2 ORDER BY ps_availqty DESC`

// RunExtensionAccuracy (X9) validates the cost model's predicted E_active
// against the measured E_active of every TPC-H query's optimizer-chosen
// plan, after the chain-wise mode selection and gather/sort/scan estimator
// fixes. X6 established the pred-vs-meas protocol; X9 is its acceptance
// sweep for the estimator rework: every query runs warm under the Eq. 1
// profiler on the SQLite profile, the README join example rides along as a
// 23rd row, and the table reports the signed error per query plus the
// within-±25% count the fixes are accepted on. Rows also show the plan's
// vector-operator count, so a prediction error can be read against how much
// of the plan went batch-at-a-time.
func RunExtensionAccuracy(o Options) (Result, error) {
	o = o.effective()
	r, err := newRig(o, cpusim.PState36, engine.SQLite, o.Setting, o.Class)
	if err != nil {
		return Result{}, err
	}
	runs, rows, within, err := predVsMeas(r, sqlSweep(o, representativeIDs...))
	if err != nil {
		return Result{}, err
	}
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
		rows[i] = append(rows[i], fmt.Sprintf("%d", s.vecOps()))
	}
	header := []string{"Query", "pred (mJ)", "meas (mJ)", "err%", "vec ops"}
	text, csv := table("Extension X9: estimator accuracy — predicted vs measured E_active after chain-wise mode pricing (SQLite, warm buffers)", header, rows)
	text += fmt.Sprintf("\nprediction within +/-25%%: %d/%d queries\n", within, total)
	text += fmt.Sprintf("README join example error: %+.1f%% (band +/-25%%)\n", readme.errPct())
	text += fmt.Sprintf("worst absolute error: %+.1f%% on %s\n", worst.errPct(), worst.name())
	return Result{ID: "X9", Title: "Extension X9 (estimator accuracy sweep)", Text: text, CSV: csv}, nil
}
