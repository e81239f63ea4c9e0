package harness

import (
	"fmt"

	"energydb/internal/db/engine"
)

// RunExtensionVector (X7) measures what vectorized execution does to the
// paper's headline bottleneck: the E_L1D+E_Reg2L1D share of Active energy.
// The row executor's per-tuple interpretation is exactly the hot-loop
// load/store storm Section 3 attributes the L1D share to; batch-at-a-time
// execution amortizes one dispatch over a cache-resident vector, so the
// interpretation component shrinks and the share shifts toward the data
// accesses themselves. Every TPC-H SQL query runs twice on identical
// machines — once with the optimizer free to choose vector operators, once
// with the DisableVectorExec knob forcing the row path — and the table
// reports measured E_active and L1D+Reg2L1D share for both, per query,
// plus the share delta the ISSUE's acceptance asks for.
func RunExtensionVector(o Options) (Result, error) {
	o = o.effective()
	sw, err := vectorVsRow(o, engine.SQLite, sqlSweep(o, representativeIDs...),
		[]string{"vec ops"}, func(p vecRowPair) []string { return []string{fmt.Sprintf("%d", p.vec.vecOps())} })
	if err != nil {
		return Result{}, err
	}
	vectorized := 0
	for _, p := range sw.pairs {
		if p.vec.vecOps() > 0 {
			vectorized++
		}
	}
	text, csv := table("Extension X7: L1D-share with and without vectorization (SQLite, warm buffers)", sw.header, sw.rows)
	text += fmt.Sprintf("\nqueries with at least one vector operator: %d/%d\n", vectorized, len(sw.pairs))
	text += energyLine("total", sw.pairs) + shareLine("avg", sw.pairs)
	return Result{ID: "X7", Title: "Extension X7 (vectorized execution vs the L1D bottleneck)", Text: text, CSV: csv}, nil
}
