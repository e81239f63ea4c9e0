package vec

import (
	"math/rand"
	"testing"

	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// TestProjectChargesDispatch is the regression test for a charge defect: a
// projection whose expressions reach no kernel (constants broadcast, and
// evalVec's Col case hands back the child's vector as-is) charged nothing
// per batch, so before Project.Next paid its per-batch TupleCost the
// operator emitted every batch with zero attributed work in its Next phase
// — exactly the shape the fuzz oracle's zero-meter check guards at runtime. Open-phase
// setup charges (pool allocation) are excluded by snapshotting the
// meter after Open, so the assertion sees only the emit path.
func TestProjectChargesDispatch(t *testing.T) {
	const batchSize = 64
	e, tbl := fuzzTable(rand.New(rand.NewSource(42)), 300)
	ms := exec.NewMeterSet(e.Ctx)
	mScan := &exec.Meter{Label: "scan"}
	mProj := &exec.Meter{Label: "project", Kids: []*exec.Meter{mScan}}
	top := &Metered{Set: ms, M: mProj, Child: &Project{
		Ctx: e.Ctx,
		Child: &Metered{Set: ms, M: mScan, Child: &Scan{
			Ctx: e.Ctx, File: tbl.File, BatchSize: batchSize,
		}},
		Exprs: []exec.Expr{exec.Const{V: value.Int(7)}, exec.Const{V: value.Str("k")}},
	}}
	if err := top.Open(); err != nil {
		t.Fatalf("open failed: %v", err)
	}
	defer top.Close()
	setup := mProj.Own()
	batches, rows := 0, 0
	for {
		b, err := top.Next()
		if err != nil {
			t.Fatalf("next failed: %v", err)
		}
		if b == nil {
			break
		}
		batches++
		rows += b.Len()
	}
	if rows == 0 {
		t.Fatal("projection emitted no rows")
	}
	delta := mProj.Own().Sub(setup)
	if got := delta.Instructions(); got < uint64(batches) {
		t.Fatalf("kernel-free projection charged %d instructions while emitting %d batches; want at least one dispatch per batch",
			got, batches)
	}
}
