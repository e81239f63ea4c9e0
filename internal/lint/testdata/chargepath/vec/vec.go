// Package vec mirrors the vectorized executor's shapes: a pooled Batch
// with Len/Pos/Cap, kernels that charge the memory hierarchy per batch,
// and operators that pull batches from a child. The chargepath analyzer
// keys on names and package basename, so the fixture defines local
// stand-ins rather than importing the real executor.
package vec

// Row mirrors exec.Row.
type Row []int

// Hierarchy is the memory-hierarchy stand-in.
type Hierarchy struct{}

func (h *Hierarchy) LoadRepeat(addr, n uint64)  {}
func (h *Hierarchy) StoreRepeat(addr, n uint64) {}
func (h *Hierarchy) Exec(n uint64)              {}

// Machine bundles the hierarchy.
type Machine struct{ Hier *Hierarchy }

// Ctx is the energy/cancellation context stand-in.
type Ctx struct{ M *Machine }

func (c *Ctx) Poll()           {}
func (c *Ctx) PollEvery(n int) {}
func (c *Ctx) TupleCost()      {}

// Vector is one pooled column.
type Vector struct{ addr uint64 }

func (v *Vector) Get(i int) int { return 0 }
func (v *Vector) Set(i, x int)  {}

// Batch is one pooled batch of columns.
type Batch struct {
	Cols []*Vector
	N    int
}

func (b *Batch) Len() int      { return b.N }
func (b *Batch) Pos(k int) int { return k }
func (b *Batch) Cap() int      { return len(b.Cols) }

// Operator is the batch-at-a-time contract.
type Operator interface {
	Next() (*Batch, error)
}

// filterOp pulls batches from a child.
type filterOp struct {
	Ctx   *Ctx
	Child Operator
}

// drainUnpolled skips both the poll and the charge on the empty-batch
// fast path: an iteration can complete via the continue without the
// driver ever paying for the pull.
func (f *filterOp) drainUnpolled() error {
	for {
		b, err := f.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if b.Len() == 0 {
			continue
		}
		f.Ctx.TupleCost()
	}
}

// drainPolled polls before branching, so every completing iteration is
// accounted: clean.
func (f *filterOp) drainPolled() error {
	for {
		b, err := f.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		f.Ctx.Poll()
		if b.Len() == 0 {
			continue
		}
		f.Ctx.TupleCost()
	}
}

// copyOut moves one value per batch position without charging anything:
// silent work the energy model never sees.
func copyOut(ctx *Ctx, b *Batch, out *Vector) {
	n := b.Len()
	for k := 0; k < n; k++ {
		out.Set(k, b.Cols[0].Get(b.Pos(k)))
	}
}

// kernel pays the per-batch dispatch and the bulk payload traffic before
// the element loop: clean (the charges dominate the loop head).
func kernel(ctx *Ctx, b *Batch, in, out *Vector) {
	ctx.TupleCost()
	n := b.Len()
	h := ctx.M.Hier
	h.LoadRepeat(in.addr, uint64(n))
	for k := 0; k < n; k++ {
		out.Set(k, in.Get(b.Pos(k)))
	}
	h.StoreRepeat(out.addr, uint64(n))
}

// chargedNoDispatch charges payload traffic per element but never pays
// the per-batch driver dispatch the vectorized cost model requires.
func chargedNoDispatch(ctx *Ctx, b *Batch, in, out *Vector) {
	n := b.Len()
	h := ctx.M.Hier
	for k := 0; k < n; k++ {
		h.LoadRepeat(in.addr, 1)
		out.Set(k, in.Get(k))
	}
}

// emitter buffers rows and emits batches.
type emitter struct {
	Ctx  *Ctx
	out  *Batch
	rows []Row
	pos  int
}

// Next emits batches without a direct cancellation poll at the emit
// boundary: a statement timeout could never interrupt the drain.
func (e *emitter) Next() (*Batch, error) {
	if e.pos >= len(e.rows) {
		return nil, nil
	}
	e.Ctx.TupleCost()
	n := e.out.Cap()
	for k := 0; k < n; k++ {
		e.out.Cols[0].Set(k, e.rows[e.pos][0])
	}
	e.pos += n
	return e.out, nil
}

// polledEmitter is the corrected shape: Poll at the emit boundary.
type polledEmitter struct {
	Ctx  *Ctx
	out  *Batch
	rows []Row
	pos  int
}

func (e *polledEmitter) Next() (*Batch, error) {
	if e.pos >= len(e.rows) {
		return nil, nil
	}
	e.Ctx.Poll()
	e.Ctx.TupleCost()
	n := e.out.Cap()
	for k := 0; k < n; k++ {
		e.out.Cols[0].Set(k, e.rows[e.pos][0])
	}
	e.pos += n
	return e.out, nil
}

// alloc is setup-only work: waived, not silently skipped.
func alloc(n int) []*Vector {
	out := make([]*Vector, n)
	//lint:nocharge one-time allocation, no payload movement
	for i := range out {
		out[i] = &Vector{}
	}
	return out
}
