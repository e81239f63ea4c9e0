package vec

import (
	"encoding/binary"
	"fmt"
	"math"

	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// pool hands out scratch vectors for expression temporaries, reused across
// batches: reset rewinds the pool at each batch boundary and get returns the
// next scratch vector, allocating (Go slice + simulated address) only on
// first use, at the capacity of the batch it is evaluated over — every batch
// an operator sees comes from one child and has that child's capacity.
// Evaluation order is deterministic, so each expression node sees the same
// scratch vector every batch.
type pool struct {
	ctx  *exec.Ctx
	vecs []*Vector
	next int
}

func newPool(ctx *exec.Ctx) *pool { return &pool{ctx: ctx} }

func (p *pool) reset() { p.next = 0 }

func (p *pool) get(cap int) *Vector {
	if p.next == len(p.vecs) {
		p.vecs = append(p.vecs, NewVector(p.ctx.Arena, value.TypeNull, cap))
	}
	v := p.vecs[p.next]
	p.next++
	return v
}

// Prog is an operator's expression list compiled for batch evaluation as one
// program: its column reads and kernels in evaluation order, operands before
// the kernel that consumes them, and one root per expression. Each distinct
// subexpression is one node, however often the list holds it, so it is read
// or computed once per batch. Column references alias the batch's vectors,
// constants broadcast from a register, and every other node is one kernel.
// The executor evaluates the sequence per batch (eval) and the planner
// prices the same sequence at estimated cardinalities (Charge), so which
// kernels an operator costs is decided once, here.
type Prog struct {
	nodes []*progNode // column reads and kernels; constants are operands only
	roots []*progNode // one per expression, nil for a nil one
	ends  []int       // nodes[:ends[i]] compute roots[:i+1]
}

// progNode is a column read (exec.Col), a constant (val fixed), or a kernel
// over up to two operands.
type progNode struct {
	e    exec.Expr
	l, r *progNode
	val  *Vector // result for the current batch
}

// nodeKey is a node's structure, by which Compile finds the node a
// subexpression already has: its kind ('c' column, 'k' constant, 'b' binary
// operator, 'n' NOT, 'l' LIKE, 'i' IN), its column index or operator, its
// operand nodes, and lit — the exact encoding of a constant or of every
// value of an IN list, or a LIKE pattern. A column's name is cosmetic.
type nodeKey struct {
	kind byte
	arg  int
	l, r *progNode
	lit  string
}

// Compile compiles the expressions into one program, root i computing
// es[i]; a nil expression (COUNT(*)'s argument) has a nil root. Every exec
// expression has a kernel; an expression type without one panics.
func Compile(es ...exec.Expr) *Prog {
	p := &Prog{roots: make([]*progNode, len(es)), ends: make([]int, len(es))}
	seen := map[nodeKey]*progNode{}
	for i, e := range es {
		if e != nil {
			p.roots[i] = p.add(e, seen)
		}
		p.ends[i] = len(p.nodes)
	}
	return p
}

func (p *Prog) add(e exec.Expr, seen map[nodeKey]*progNode) *progNode {
	var k nodeKey
	switch t := e.(type) {
	case exec.Const:
		k = nodeKey{kind: 'k', lit: lit(t.V)}
	case exec.Col:
		k = nodeKey{kind: 'c', arg: t.Idx}
	case exec.BinOp:
		k = nodeKey{kind: 'b', arg: int(t.Op), l: p.add(t.L, seen), r: p.add(t.R, seen)}
	case exec.Not:
		k = nodeKey{kind: 'n', l: p.add(t.E, seen)}
	case exec.Like:
		k = nodeKey{kind: 'l', l: p.add(t.E, seen), lit: t.Pattern}
	case exec.InList:
		k = nodeKey{kind: 'i', l: p.add(t.E, seen), lit: lit(t.List...)}
	default:
		panic(fmt.Sprintf("vec: no kernel for %T", e))
	}
	if n := seen[k]; n != nil {
		return n
	}
	n := &progNode{e: e, l: k.l, r: k.r}
	seen[k] = n
	if c, ok := e.(exec.Const); ok {
		n.val = NewConst(c.V)
	} else {
		p.nodes = append(p.nodes, n)
	}
	return n
}

// lit encodes values exactly: every field, a string length-prefixed, so
// Int(1) and Float(1), 0.0 and -0.0, or two lists differing in one value
// never encode alike.
func lit(vs ...value.Value) string {
	var b []byte
	for _, v := range vs {
		b = append(b, byte(v.T))
		b = binary.AppendVarint(b, v.I)
		b = binary.AppendUvarint(b, math.Float64bits(v.F))
		b = binary.AppendUvarint(b, uint64(len(v.S)))
		b = append(b, v.S...)
	}
	return string(b)
}

// Const reports whether root i is a broadcast constant.
func (p *Prog) Const(i int) bool { return p.roots[i].isConst() }

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
	return append(ins, n.val.Addr())
}

// Charge charges one evaluation per batch over c.In selected elements:
// touch is told each column read — whether that materializes the column
// depends on what the chain below already touched, which the caller knows —
// and every kernel is charged, once however many roots share it.
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

// ChargeFilter charges a one-root program as a predicate: Charge, then the
// narrowing of c.In candidates to c.Out survivors.
func (p *Prog) ChargeFilter(s exec.Sink, c exec.Card, touch func(col int)) {
	p.Charge(s, c, touch)
	chargeNarrow(s, c, 0, p.Const(0), 0)
}

// eval returns a root's result over the batch's selected positions (nil for
// a nil root), evaluating the nodes it needs beyond those of the roots
// before it: called for each root in order after a pool reset, it runs every
// node once. Dispatch is charged per batch per kernel, payload traffic per
// element, with element semantics delegated to the exact same helpers the
// row interpreter uses. The result is only valid until the pool is reset.
func (p *Prog) eval(ctx *exec.Ctx, pl *pool, b *Batch, root int) *Vector {
	n := b.Len()
	c := exec.Card{Batches: 1, In: float64(n)}
	var buf [2]uint64
	from := 0
	if root > 0 {
		from = p.ends[root-1]
	}
	for _, nd := range p.nodes[from:p.ends[root]] {
		if col, ok := nd.e.(exec.Col); ok {
			nd.val = b.Col(ctx, col.Idx)
			continue
		}
		out := pl.get(b.cap)
		nd.val = out //lint:poolescape node results are read by later nodes of this eval and by its caller, all before the pool is reset at the next batch
		chargeKernel(ctx, c, out.Addr(), nd.r.payload(nd.l.payload(buf[:0]))...)
		var l *Vector
		if nd.l != nil {
			l = nd.l.val
		}
		switch t := nd.e.(type) {
		case exec.BinOp:
			r := nd.r.val
			if evalNumeric(t.Op, l, r, out, b) {
				break
			}
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
		}
	}
	if p.roots[root] == nil {
		return nil
	}
	return p.roots[root].val
}

// numOperand is a kernel operand read without boxing: a null-free int, date
// or float payload, or a numeric constant, every element as the float64
// exec.ApplyBin would coerce it to.
type numOperand struct {
	i     []int64
	f     []float64
	c     float64
	isInt bool // TypeInt exactly: int ∘ int arithmetic stays int, dates do not
}

func (o *numOperand) at(i int) float64 {
	switch {
	case o.i != nil:
		return float64(o.i[i])
	case o.f != nil:
		return o.f[i]
	}
	return o.c
}

// numeric returns v's unboxed view, or false when v is not a null-free
// numeric payload (strings, the demoted fallback payload, NULLs, a vector
// nothing has been stored into yet).
func (v *Vector) numeric() (numOperand, bool) {
	o := numOperand{isInt: v.T == value.TypeInt}
	if v.isConst {
		o.c = v.cv.AsFloat()
		return o, v.T == value.TypeInt || v.T == value.TypeDate || v.T == value.TypeFloat
	}
	if v.raw != nil {
		return o, false
	}
	for _, w := range v.null {
		if w != 0 {
			return o, false
		}
	}
	switch v.T {
	case value.TypeInt, value.TypeDate:
		o.i = v.i
		return o, v.i != nil
	case value.TypeFloat:
		o.f = v.f
		return o, v.f != nil
	}
	return o, false
}

// evalNumeric is the typed form of the BinOp kernel's element loop: when both
// operands are null-free numeric payloads or constants it computes what
// exec.ApplyBin computes — the same float64 coercion, the same three-way
// comparison, the same int-or-float result type — on the payload slices
// directly and stores into out's payload, leaving out exactly as the
// Get/ApplyBin/Set loop would. It reports false, having changed nothing,
// when the operands or out's state call for that loop instead (a division
// whose divisor might be zero yields NULLs; an out vector already holding
// another type demotes). Charges are the caller's and do not depend on the
// path taken.
func evalNumeric(op exec.BinOpKind, l, r, out *Vector, b *Batch) bool {
	n := b.Len()
	lo, okL := l.numeric()
	ro, okR := r.numeric()
	if !okL || !okR || n == 0 || out.raw != nil {
		return false
	}
	arith := op == exec.OpAdd || op == exec.OpSub || op == exec.OpMul || op == exec.OpDiv
	if op == exec.OpDiv && !(r.isConst && ro.c != 0) {
		return false
	}
	resT := value.TypeInt
	if arith && !(lo.isInt && ro.isInt && op != exec.OpDiv) {
		resT = value.TypeFloat
	}
	if out.T != value.TypeNull && out.T != resT {
		return false
	}
	out.T = resT
	if resT == value.TypeFloat {
		if out.f == nil {
			out.f = make([]float64, out.cap)
		}
		//lint:nocharge the kernel's dispatch and payload traffic are charged by the caller (chargeKernel in Prog.eval), whichever element loop runs
		for k := 0; k < n; k++ {
			i := b.Pos(k)
			out.clearNull(i)
			out.f[i] = applyArith(op, lo.at(i), ro.at(i))
		}
		return true
	}
	if out.i == nil {
		out.i = make([]int64, out.cap)
	}
	//lint:nocharge as above: charged by the caller before the element loop
	for k := 0; k < n; k++ {
		i := b.Pos(k)
		out.clearNull(i)
		x, y := lo.at(i), ro.at(i)
		if arith {
			out.i[i] = int64(applyArith(op, x, y))
			continue
		}
		t := false
		switch op {
		case exec.OpAnd:
			t = x != 0 && y != 0
		case exec.OpOr:
			t = x != 0 || y != 0
		case exec.OpEq:
			t = !(x < y) && !(x > y)
		case exec.OpNe:
			t = x < y || x > y
		case exec.OpLt:
			t = x < y
		case exec.OpLe:
			t = !(x > y)
		case exec.OpGt:
			t = x > y
		case exec.OpGe:
			t = !(x < y)
		}
		out.i[i] = 0
		if t {
			out.i[i] = 1
		}
	}
	return true
}

func applyArith(op exec.BinOpKind, x, y float64) float64 {
	switch op {
	case exec.OpAdd:
		return x + y
	case exec.OpSub:
		return x - y
	case exec.OpMul:
		return x * y
	}
	return x / y
}

func boolVal(b bool) value.Value {
	if b {
		return value.Int(1)
	}
	return value.Int(0)
}

// filter evaluates a one-root program as a predicate and narrows the batch's
// selection to the positions where it is truthy.
func (p *Prog) filter(ctx *exec.Ctx, pl *pool, b *Batch) {
	pred := p.eval(ctx, pl, b, 0)
	c := exec.Card{Batches: 1, In: float64(b.Len())}
	if c.In > 0 {
		if o, ok := pred.numeric(); ok {
			b.narrowSel(func(i int) bool { return o.at(i) != 0 })
		} else {
			b.narrowSel(func(i int) bool { return exec.Truthy(pred.Get(i)) })
		}
		c.Out = float64(b.Len())
	}
	chargeNarrow(ctx, c, pred.Addr(), pred.isConst, b.selAddr())
}
