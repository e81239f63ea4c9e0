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
//
// A filter program (CompileFilter) has one root per conjunct of its
// predicate. A conjunct whose root is a kernel is a selection primitive: the
// root is no node of the sequence and never stores a value, it tests its
// operands and writes the selection vector (filter, ChargeFilter).
type Prog struct {
	nodes []*progNode // column reads and kernels; constants are operands only
	roots []*progNode // one per expression, nil for a nil one
	ends  []int       // nodes[:ends[i]] compute roots[:i+1], or their operands
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

// CompileFilter compiles a predicate as a filter program: one root per
// conjunct (Conjuncts), in order, over one shared node sequence. A kernel at
// a conjunct's root becomes a selection primitive; its operands are nodes
// like any other, so a subexpression two conjuncts share is computed once.
func CompileFilter(pred exec.Expr) *Prog {
	cs := Conjuncts(pred)
	p := &Prog{roots: make([]*progNode, len(cs)), ends: make([]int, len(cs))}
	seen := map[nodeKey]*progNode{}
	for i, c := range cs {
		if k := p.key(c, seen); k.kind == 'c' || k.kind == 'k' {
			p.roots[i] = p.add(c, seen)
		} else {
			p.roots[i] = &progNode{e: c, l: k.l, r: k.r}
		}
		p.ends[i] = len(p.nodes)
	}
	return p
}

// Conjuncts splits a predicate's AND tree into the conjuncts a filter
// program tests one after another, left to right; a predicate with no AND
// at its root is its own single conjunct. exec.ApplyBin's AND is the truth
// of both operands, so a row passes the predicate exactly when it passes
// every conjunct.
func Conjuncts(pred exec.Expr) []exec.Expr {
	if b, ok := pred.(exec.BinOp); ok && b.Op == exec.OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []exec.Expr{pred}
}

func (p *Prog) add(e exec.Expr, seen map[nodeKey]*progNode) *progNode {
	k := p.key(e, seen)
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

// key returns e's structural key, adding its operands to the program first.
func (p *Prog) key(e exec.Expr, seen map[nodeKey]*progNode) nodeKey {
	switch t := e.(type) {
	case exec.Const:
		return nodeKey{kind: 'k', lit: lit(t.V)}
	case exec.Col:
		return nodeKey{kind: 'c', arg: t.Idx}
	case exec.BinOp:
		return nodeKey{kind: 'b', arg: int(t.Op), l: p.add(t.L, seen), r: p.add(t.R, seen)}
	case exec.Not:
		return nodeKey{kind: 'n', l: p.add(t.E, seen)}
	case exec.Like:
		return nodeKey{kind: 'l', l: p.add(t.E, seen), lit: t.Pattern}
	case exec.InList:
		return nodeKey{kind: 'i', l: p.add(t.E, seen), lit: lit(t.List...)}
	}
	panic(fmt.Sprintf("vec: no kernel for %T", e))
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

// kernel reports whether the node computes its value from operands, as
// opposed to reading a column or broadcasting a constant.
func (n *progNode) kernel() bool {
	switch n.e.(type) {
	case exec.Col, exec.Const:
		return false
	}
	return true
}

// Charge charges one evaluation per batch over c.In selected elements:
// touch is told each column read — whether that materializes the column
// depends on what the chain below already touched, which the caller knows —
// and every kernel is charged, once however many roots share it.
func (p *Prog) Charge(s exec.Sink, c exec.Card, touch func(col int)) {
	chargeNodes(s, c, p.nodes, touch)
}

func chargeNodes(s exec.Sink, c exec.Card, nodes []*progNode, touch func(col int)) {
	var buf [2]uint64
	for _, n := range nodes {
		if col, ok := n.e.(exec.Col); ok {
			touch(col.Idx)
		} else {
			chargeKernel(s, c, 0, n.r.payload(n.l.payload(buf[:0]))...)
		}
	}
}

// ChargeFilter charges a filter program over the given number of batches,
// conjunct by conjunct: rows[i] candidates reach conjunct i and rows[i+1] of
// them survive it, so rows holds one entry per conjunct and then the rows
// leaving the last. Conjunct i's new operand nodes run over its rows[i]
// candidates, then its root narrows them: a selection primitive
// (chargeSelect) where the root is a kernel, a predicate-vector narrowing
// (chargeNarrow) where it is a bare column or constant.
func (p *Prog) ChargeFilter(s exec.Sink, batches float64, rows []float64, touch func(col int)) {
	if len(rows) != len(p.roots)+1 {
		panic(fmt.Sprintf("vec: %d row counts for a filter of %d conjuncts", len(rows), len(p.roots)))
	}
	var buf [2]uint64
	from := 0
	for i, root := range p.roots {
		c := exec.Card{Batches: batches, In: rows[i], Out: rows[i+1]}
		chargeNodes(s, c, p.nodes[from:p.ends[i]], touch)
		from = p.ends[i]
		if root.kernel() {
			chargeSelect(s, c, 0, root.r.payload(root.l.payload(buf[:0]))...)
		} else {
			chargeNarrow(s, c, 0, root.isConst(), 0)
		}
	}
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
		if t, ok := nd.e.(exec.BinOp); ok && evalNumeric(t.Op, nd.l.val, nd.r.val, out, b) {
			continue
		}
		for k := 0; k < n; k++ {
			i := b.Pos(k)
			out.Set(i, nd.at(i))
		}
	}
	if p.roots[root] == nil {
		return nil
	}
	return p.roots[root].val
}

// at computes kernel node nd's element at batch position i from its
// operands' current values, with the row interpreter's own helpers.
func (nd *progNode) at(i int) value.Value {
	switch t := nd.e.(type) {
	case exec.BinOp:
		return exec.ApplyBin(t.Op, nd.l.val.Get(i), nd.r.val.Get(i))
	case exec.Not:
		return boolVal(!exec.Truthy(nd.l.val.Get(i)))
	case exec.Like:
		return boolVal(exec.LikeMatch(nd.l.val.Get(i).S, t.Pattern))
	case exec.InList:
		v := nd.l.val.Get(i)
		for _, item := range t.List {
			if value.Equal(v, item) {
				return value.Int(1)
			}
		}
		return value.Int(0)
	}
	panic(fmt.Sprintf("vec: no kernel for %T", nd.e))
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
	arith := isArith(op)
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
		out.i[i] = 0
		if applyBool(op, x, y) {
			out.i[i] = 1
		}
	}
	return true
}

func isArith(op exec.BinOpKind) bool {
	return op == exec.OpAdd || op == exec.OpSub || op == exec.OpMul || op == exec.OpDiv
}

// applyBool is a comparison, AND or OR (op is no arithmetic operator) over
// two numeric operands as exec.ApplyBin decides it on their float64
// coercions: value.Compare's three-way comparison (neither less nor greater
// is equal), and the truth of a non-zero operand. The BinOp kernel's typed
// loop and the selection primitive both test through it; it stays small
// enough to inline into their element loops.
func applyBool(op exec.BinOpKind, x, y float64) bool {
	switch op {
	case exec.OpAnd:
		return x != 0 && y != 0
	case exec.OpOr:
		return x != 0 || y != 0
	case exec.OpEq:
		return !(x < y) && !(x > y)
	case exec.OpNe:
		return x < y || x > y
	case exec.OpLt:
		return x < y
	case exec.OpLe:
		return !(x > y)
	case exec.OpGt:
		return x > y
	}
	return !(x < y) // exec.OpGe
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

// filter narrows the batch's selection by a filter program, one conjunct at
// a time: each conjunct's new operand nodes are evaluated over the selection
// the conjuncts before it left, then its root narrows that selection. An
// empty selection still runs the remaining conjuncts, at no elements: a
// chain dispatches once per root batch.
func (p *Prog) filter(ctx *exec.Ctx, pl *pool, b *Batch) {
	var buf [2]uint64
	for i, root := range p.roots {
		pred := p.eval(ctx, pl, b, i)
		c := exec.Card{Batches: 1, In: float64(b.Len())}
		if root.kernel() {
			root.selectInto(b)
			c.Out = float64(b.Len())
			chargeSelect(ctx, c, b.selAddr(), root.r.payload(root.l.payload(buf[:0]))...)
			continue
		}
		if o, ok := pred.numeric(); ok {
			b.narrowSel(func(i int) bool { return o.at(i) != 0 })
		} else {
			b.narrowSel(func(i int) bool { return exec.Truthy(pred.Get(i)) })
		}
		c.Out = float64(b.Len())
		chargeNarrow(ctx, c, pred.Addr(), pred.isConst, b.selAddr())
	}
}

// selectInto is a selection primitive: it narrows b's selection to the
// positions where kernel node nd holds, testing each candidate straight from
// nd's operands and storing no value of nd's. A comparison, AND or OR of two
// null-free numeric operands tests their payloads through applyBool;
// anything else tests the element the kernel would have stored.
func (nd *progNode) selectInto(b *Batch) {
	if t, ok := nd.e.(exec.BinOp); ok && !isArith(t.Op) {
		lo, okL := nd.l.val.numeric()
		ro, okR := nd.r.val.numeric()
		if okL && okR {
			b.narrowSel(func(i int) bool { return applyBool(t.Op, lo.at(i), ro.at(i)) })
			return
		}
	}
	b.narrowSel(func(i int) bool { return exec.Truthy(nd.at(i)) })
}
