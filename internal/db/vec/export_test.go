package vec

import "energydb/internal/db/exec"

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
