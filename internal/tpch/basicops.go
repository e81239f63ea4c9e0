package tpch

import (
	"fmt"

	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
)

// BasicOp is one of the seven basic query operations of Section 3.2, whose
// Active-energy breakdowns Figure 6 reports, as the SQL text that is planned
// and run for it.
type BasicOp struct {
	Name string
	Text string
}

// BasicOps returns the seven operations in the paper's figure order:
// select, projection, join, sort, groupby, table scan, index scan. The
// index scan's range is the shipdate index's, so under DisableVectorExec it
// plans as a B-tree range scan with random heap fetches over the rows the
// table scan streams — the locality contrast of Section 3.3.
func BasicOps() []BasicOp {
	return []BasicOp{
		{"select", "SELECT * FROM lineitem WHERE l_quantity > 45 AND l_discount < 0.03"},
		{"projection", "SELECT l_orderkey, " + rev + " AS revenue, l_quantity * l_tax AS taxed_qty FROM lineitem"},
		{"join", "SELECT * FROM orders JOIN lineitem ON o_orderkey = l_orderkey"},
		{"sort", "SELECT * FROM lineitem ORDER BY l_extendedprice DESC"},
		{"groupby", "SELECT l_returnflag, l_shipmode, SUM(l_quantity) AS sum_qty, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag, l_shipmode"},
		{"table scan", "SELECT * FROM lineitem"},
		{"index scan", "SELECT * FROM lineitem WHERE l_shipdate BETWEEN '1993-01-01' AND '1996-01-01'"},
	}
}

// BasicOpByName fetches one operation.
func BasicOpByName(name string) (BasicOp, error) {
	for _, op := range BasicOps() {
		if op.Name == name {
			return op, nil
		}
	}
	return BasicOp{}, fmt.Errorf("tpch: no basic operation %q", name)
}

// Warm is the first half of warm-then-measure for a plan built by a
// function — plan.Builder's for SQL text, or an executor tree built by hand:
// it builds and runs the plan once so buffers and caches hold the working
// set, then returns a fresh build to measure.
func Warm(e *engine.Engine, build func(*engine.Engine) (exec.Operator, error)) (exec.Operator, error) {
	plan, err := build(e)
	if err != nil {
		return nil, err
	}
	if _, err := e.Run(plan); err != nil {
		return nil, err
	}
	return build(e)
}
