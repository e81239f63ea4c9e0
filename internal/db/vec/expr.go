package vec

import (
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// pool hands out scratch vectors for expression temporaries, reused across
// batches: reset rewinds the pool at each batch boundary and get returns the
// next scratch vector, allocating (Go slice + simulated address) only on
// first use. Evaluation order is deterministic, so each expression node sees
// the same scratch vector every batch.
type pool struct {
	ctx  *exec.Ctx
	cap  int
	vecs []*Vector
	next int
}

func newPool(ctx *exec.Ctx, cap int) *pool {
	return &pool{ctx: ctx, cap: cap}
}

func (p *pool) reset() { p.next = 0 }

func (p *pool) get() *Vector {
	if p.next == len(p.vecs) {
		p.vecs = append(p.vecs, NewVector(p.ctx.Arena, value.TypeNull, p.cap))
	}
	v := p.vecs[p.next]
	p.next++
	return v
}

// Prog is an expression compiled for batch evaluation: its column reads and
// kernels in evaluation order, operands before the kernel that consumes
// them. Column references alias the batch's vectors, constants broadcast
// from a register, and every other node is one kernel. The executor
// evaluates the sequence per batch (eval) and the planner prices the same
// sequence at estimated cardinalities (Charge), so which kernels an
// expression costs is decided once, here.
type Prog struct {
	nodes []*progNode // column reads and kernels; constants are operands only
	res   *progNode
	// exact is false when some node has no kernel and falls back to
	// row-at-a-time evaluation; the planner only vectorizes exact programs.
	exact bool
}

// progNode is a column read (exec.Col), a constant (val fixed), or a kernel
// over up to two operands.
type progNode struct {
	e    exec.Expr
	l, r *progNode
	val  *Vector // result for the current batch
}

// Compile flattens the expression into a program.
func Compile(e exec.Expr) *Prog {
	p := &Prog{exact: true}
	p.res = p.add(e)
	return p
}

func (p *Prog) add(e exec.Expr) *progNode {
	n := &progNode{e: e}
	switch t := e.(type) {
	case exec.Const:
		n.val = NewConst(t.V)
		return n
	case exec.Col:
	case exec.BinOp:
		n.l, n.r = p.add(t.L), p.add(t.R)
	case exec.Not:
		n.l = p.add(t.E)
	case exec.Like:
		n.l = p.add(t.E)
	case exec.InList:
		n.l = p.add(t.E)
	default:
		p.exact = false
	}
	p.nodes = append(p.nodes, n)
	return n
}

// Exact reports whether the program runs as kernels only. The planner only
// chooses vector mode for exact programs; an unsupported node reaching a
// program anyway falls back to row-at-a-time evaluation inside its kernel.
func (p *Prog) Exact() bool { return p.exact }

// Const reports whether the program's result is a broadcast constant.
func (p *Prog) Const() bool { return p.res.isConst() }

// isConst reports whether the node broadcasts a constant, which a kernel
// keeps in a register instead of loading a payload.
func (n *progNode) isConst() bool { return n.val != nil && n.val.isConst }

// payload appends the address a kernel loads operand n from, unless the
// operand is absent or constant (the address is zero before the first eval).
func (n *progNode) payload(ins []uint64) []uint64 {
	switch {
	case n == nil || n.isConst():
		return ins
	case n.val == nil:
		return append(ins, 0)
	}
	return append(ins, n.val.addr)
}

// Charge charges one evaluation per batch over c.In selected elements:
// touch is told each column read — whether that materializes the column
// depends on what the chain below already touched, which the caller knows —
// and every kernel is charged.
func (p *Prog) Charge(s exec.Sink, c exec.Card, touch func(col int)) {
	var buf [2]uint64
	for _, n := range p.nodes {
		if col, ok := n.e.(exec.Col); ok {
			touch(col.Idx)
		} else {
			chargeKernel(s, c, 0, n.r.payload(n.l.payload(buf[:0]))...)
		}
	}
}

// ChargeFilter charges the program as a predicate: Charge, then the
// narrowing of c.In candidates to c.Out survivors.
func (p *Prog) ChargeFilter(s exec.Sink, c exec.Card, touch func(col int)) {
	p.Charge(s, c, touch)
	chargeNarrow(s, c, 0, p.Const(), 0)
}

// eval evaluates the program over the batch's selected positions: dispatch
// charged per batch per kernel, payload traffic per element, with element
// semantics delegated to the exact same helpers the row interpreter uses.
// The result is only valid until the next eval or pool reset.
func (p *Prog) eval(ctx *exec.Ctx, pl *pool, b *Batch) *Vector {
	n := b.Len()
	c := exec.Card{Batches: 1, In: float64(n)}
	var buf [2]uint64
	for _, nd := range p.nodes {
		if col, ok := nd.e.(exec.Col); ok {
			nd.val = b.Col(ctx, col.Idx)
			continue
		}
		out := pl.get()
		nd.val = out //lint:poolescape node results are read by later nodes of this eval and by its caller, all before the pool is reset at the next batch
		chargeKernel(ctx, c, out.addr, nd.r.payload(nd.l.payload(buf[:0]))...)
		var l *Vector
		if nd.l != nil {
			l = nd.l.val
		}
		switch t := nd.e.(type) {
		case exec.BinOp:
			r := nd.r.val
			for k := 0; k < n; k++ {
				i := b.Pos(k)
				out.Set(i, exec.ApplyBin(t.Op, l.Get(i), r.Get(i)))
			}
		case exec.Not:
			for k := 0; k < n; k++ {
				i := b.Pos(k)
				out.Set(i, boolVal(!exec.Truthy(l.Get(i))))
			}
		case exec.Like:
			for k := 0; k < n; k++ {
				i := b.Pos(k)
				out.Set(i, boolVal(exec.LikeMatch(l.Get(i).S, t.Pattern)))
			}
		case exec.InList:
			for k := 0; k < n; k++ {
				i := b.Pos(k)
				v := l.Get(i)
				hit := false
				for _, item := range t.List {
					if value.Equal(v, item) {
						hit = true
						break
					}
				}
				out.Set(i, boolVal(hit))
			}
		default:
			// Exact fallback for expression types without a kernel: rebuild
			// each selected row and run the row interpreter's Eval, charging
			// its per-node cost so the energy model stays honest.
			nodes := nd.e.Nodes()
			row := make(value.Row, len(b.Cols))
			for k := 0; k < n; k++ {
				i := b.Pos(k)
				b.Row(k, row)
				ctx.EvalCost(nodes)
				out.Set(i, nd.e.Eval(row))
			}
		}
	}
	return p.res.val
}

func boolVal(b bool) value.Value {
	if b {
		return value.Int(1)
	}
	return value.Int(0)
}

// filter evaluates the program as a predicate and narrows the batch's
// selection to the positions where it is truthy.
func (p *Prog) filter(ctx *exec.Ctx, pl *pool, b *Batch) {
	pred := p.eval(ctx, pl, b)
	c := exec.Card{Batches: 1, In: float64(b.Len())}
	if c.In > 0 {
		b.narrowSel(func(i int) bool { return exec.Truthy(pred.Get(i)) })
		c.Out = float64(b.Len())
	}
	chargeNarrow(ctx, c, pred.addr, pred.isConst, b.selAddr)
}
