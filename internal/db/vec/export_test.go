package vec

import (
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// EvalEach returns a function that evaluates p over a batch the way the
// operator holding p does once per batch: a pool reset, then the program's
// fused loop.
func EvalEach(ctx *exec.Ctx, p *Prog) func(b *Batch) {
	pl := newPool(ctx)
	return func(b *Batch) {
		pl.reset()
		p.eval(ctx, pl, b)
	}
}

// Rows returns the raw rows backing a lazily backed batch, nil for a
// materialized one.
func (b *Batch) Rows() []value.Row { return b.rows }

// StoreCols stores every column of a lazily backed batch in its vector, as
// a consumer taking each vector itself would.
func (b *Batch) StoreCols(ctx *exec.Ctx) {
	for j := range b.Cols {
		b.take(ctx, j, Store)
	}
}
