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
// or computed once per batch. A column a kernel reads is loaded by the loop
// (from the backing rows, if no consumer took it before: Batch.take),
// constants broadcast from a register, and every other node is one kernel.
// The executor evaluates the sequence per batch (eval) and the planner
// prices the same sequence at estimated cardinalities (Charge), so which
// kernels an operator costs is decided once, here.
//
// The program runs as fused element loops, scheduled once at compile time
// (fuse): one loop over every node for a Compile program, one per conjunct
// for a filter program. A loop is one dispatch; what it loads, stores and
// spills follows from which of its values leave it (DESIGN.md §11, fused
// programs).
//
// A filter program (CompileFilter) has one root per conjunct of its
// predicate. A conjunct whose root is a kernel is a selection primitive: the
// root is no node of the sequence and never stores a value, it tests its
// operands and writes the selection vector (filter, ChargeFilter).
type Prog struct {
	nodes []*progNode // column reads and kernels; constants are operands only
	roots []*progNode // one per expression, nil for a nil one
	loops []loop      // the fused element loops, in the order they run
	// bare is how a column root reaches the program's consumer: stored for a
	// projection that hands it on, read by a sort's key pack, or hold —
	// loaded by an aggregate's loop for its table update.
	bare Use
}

// progNode is a column read (exec.Col), a constant (val fixed), or a kernel
// over up to two operands.
type progNode struct {
	e    exec.Expr
	l, r *progNode
	val  *Vector // result for the current batch
	from uint64  // a column's: where the current batch's loads of it go
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
// expression has a kernel; an expression type without one panics. Its one
// loop stores every kernel root, which its consumer reads back, and a column
// root is stored for the consumer to take (Batch.take, Store).
func Compile(es ...exec.Expr) *Prog { return compile(es, len(es), Store, false) }

// CompileSort compiles a sort's keys: the loop stores every kernel key, and
// each key's packing primitive then reads its key once per element — a
// column key straight from the batch, as a loop's own read (Read).
func CompileSort(keys []exec.SortKey) *Prog {
	return compile(exec.SortExprs(keys), len(keys), Read, false)
}

// CompileAgg compiles a hash aggregation's expression list, exec.AggExprs:
// the GROUP BY keys, then one argument per aggregate. The argument roots go
// straight into the table update the loop runs into (ChargeAggUpdate): they
// stay in registers to the loop's end and are never stored. So does every
// column root, which the loop loads itself.
func CompileAgg(groupBy []exec.Expr, aggs []exec.AggSpec) *Prog {
	return compile(exec.AggExprs(groupBy, aggs), len(groupBy), hold, false)
}

// CompileCodeAgg is CompileAgg for a code-indexed aggregation (Agg): the loop
// reads each bare column key's codes (Code), unless something else in the
// program reads the column as values.
func CompileCodeAgg(groupBy []exec.Expr, aggs []exec.AggSpec) *Prog {
	return compile(exec.AggExprs(groupBy, aggs), len(groupBy), hold, true)
}

// compile compiles es as one loop whose first stored roots are stored and
// whose other roots are held to the loop's end; a column root reaches the
// consumer as bare says, and under hold the loop holds it too, for its codes
// when it is one of the first stored roots and codeKeys is set.
func compile(es []exec.Expr, stored int, bare Use, codeKeys bool) *Prog {
	p := &Prog{roots: make([]*progNode, len(es)), bare: bare}
	seen := map[nodeKey]*progNode{}
	for i, e := range es {
		if e != nil {
			p.roots[i] = p.add(e, seen)
		}
	}
	store := map[*progNode]bool{}
	for _, r := range p.roots[:stored] {
		store[r] = true
	}
	held := p.roots[stored:]
	codes := map[*progNode]bool{}
	if bare == hold {
		held = nil
		for i, r := range p.roots {
			if _, ok := r.column(); ok || i >= stored {
				held = append(held, r)
			}
			if i < stored && codeKeys {
				codes[r] = true
			}
		}
		for _, r := range p.roots[stored:] {
			delete(codes, r)
		}
	}
	p.loops = []loop{fuse(p.nodes, nil, store, held, codes)}
	return p
}

// CompileFilter compiles a predicate as a filter program: one root per
// conjunct (Conjuncts), in order, over one shared node sequence. A kernel at
// a conjunct's root becomes a selection primitive; its operands are nodes
// like any other, so a subexpression two conjuncts share is computed once:
// in the first conjunct's loop, which stores it for the later one to load.
func CompileFilter(pred exec.Expr) *Prog {
	cs := Conjuncts(pred)
	p := &Prog{roots: make([]*progNode, len(cs)), loops: make([]loop, len(cs))}
	seen := map[nodeKey]*progNode{}
	ends := make([]int, len(cs)+1) // nodes[ends[i]:ends[i+1]] are conjunct i's own
	for i, c := range cs {
		if k := p.key(c, seen); k.kind == 'c' || k.kind == 'k' {
			p.roots[i] = p.add(c, seen)
		} else {
			p.roots[i] = &progNode{e: c, l: k.l, r: k.r}
		}
		ends[i+1] = len(p.nodes)
	}
	// Conjunct by conjunct from the last: a kernel a later conjunct loads
	// crosses a loop boundary and is stored.
	later := map[*progNode]bool{}
	for i := len(cs) - 1; i >= 0; i-- {
		var sel *progNode
		if p.roots[i].kernel() {
			sel = p.roots[i]
		}
		p.loops[i] = fuse(p.nodes[ends[i]:ends[i+1]], sel, later, nil, nil)
		for _, n := range p.loops[i].loads {
			later[n] = true
		}
	}
	return p
}

// loop is the schedule of one fused element loop: the column reads and
// kernels it binds and computes, in order; the values it loads (columns,
// and values an earlier loop stored), the values it stores (for a consumer
// after the loop), and the values the register budget spills. Every other
// value it computes lives and dies in a register. A loop with no kernel
// loads only columns an aggregate's table update takes, into registers.
// uses says, per load, how the loop takes a column: Code where it reads only
// the column's codes, Read otherwise.
type loop struct {
	nodes                 []*progNode
	kernels               int // kernel nodes, a filter conjunct's selection primitive included
	loads, stores, spills []*progNode
	uses                  []Use
}

// fuse schedules the loop over nodes that ends in selection primitive sel
// (nil for none). A kernel in store is stored once; the values in held stay
// live to the loop's end, and a held column no kernel reads is loaded for
// it, at the end. A value is live from the kernel that loads or
// computes it to the last kernel of the loop that reads it; where more than
// regBudget values are live at once, the excess spill: the values loaded or
// computed last among those live where the count first peaks. A column the
// loop loads is read as codes (Code) when every kernel reading it compares it
// with literals (codeTest) and, if held, it is held for its codes (in codes).
func fuse(nodes []*progNode, sel *progNode, store map[*progNode]bool, held []*progNode, codes map[*progNode]bool) loop {
	var steps []*progNode // the kernels in the order they run
	for _, n := range nodes {
		if n.kernel() {
			steps = append(steps, n)
		}
	}
	if sel != nil {
		steps = append(steps, sel)
	}
	l := loop{nodes: nodes, kernels: len(steps)}
	var vals []*progNode           // in order of first load or computation
	span := map[*progNode][2]int{} // the first and last kernel each value is live at
	use := func(n *progNode, at int) {
		if s, ok := span[n]; ok {
			span[n] = [2]int{s[0], at}
			return
		}
		span[n] = [2]int{at, at}
		vals = append(vals, n)
	}
	for at, k := range steps {
		for _, o := range [2]*progNode{k.l, k.r} {
			if o == nil || o.isConst() {
				continue
			}
			if _, ok := span[o]; !ok {
				l.loads = append(l.loads, o)
			}
			use(o, at)
		}
		use(k, at)
		if store[k] {
			l.stores = append(l.stores, k)
		}
	}
	for _, n := range held {
		if s, ok := span[n]; ok {
			span[n] = [2]int{s[0], len(steps)}
		} else if _, ok := n.column(); ok {
			l.loads = append(l.loads, n)
			use(n, len(steps))
		}
	}
	values := map[*progNode]bool{} // the columns something reads as values
	for _, k := range steps {
		for _, o := range [2]*progNode{k.l, k.r} {
			if o != nil && !k.codeTest(o) {
				values[o] = true
			}
		}
	}
	for _, n := range held {
		if !codes[n] {
			values[n] = true
		}
	}
	for _, n := range l.loads {
		u := Read
		if _, ok := n.column(); ok && !values[n] {
			u = Code
		}
		l.uses = append(l.uses, u)
	}
	liveAt := func(n *progNode, at int) bool { return span[n][0] <= at && at <= span[n][1] }
	peak, peakAt := 0, 0
	for at := 0; at <= len(steps); at++ {
		live := 0
		for _, n := range vals {
			if liveAt(n, at) {
				live++
			}
		}
		if live > peak {
			peak, peakAt = live, at
		}
	}
	if peak > regBudget {
		for _, n := range vals {
			if liveAt(n, peakAt) {
				l.spills = append(l.spills, n)
			}
		}
		l.spills = l.spills[regBudget:]
	}
	return l
}

// addr is the address the loop's loads and stores of the node's current
// value go to: a column's where the batch's take put them, a kernel's
// payload. It is zero before the first eval (and in the planner's programs,
// which never evaluate).
func (n *progNode) addr() uint64 {
	if _, ok := n.column(); ok {
		return n.from
	}
	if n.val == nil {
		return 0
	}
	return n.val.Addr()
}

// codeTest reports whether kernel k tests operand o against literals alone,
// a test a coded column answers from its codes: o = 'lit', o <> 'lit', or
// o IN ('lit', ...), every literal a string.
func (k *progNode) codeTest(o *progNode) bool {
	str := func(v value.Value) bool { return v.T == value.TypeStr }
	switch t := k.e.(type) {
	case exec.BinOp:
		other := k.r
		if k.r == o {
			other = k.l
		}
		return (t.Op == exec.OpEq || t.Op == exec.OpNe) && other != o && other.isConst() && str(other.val.cv)
	case exec.InList:
		for _, v := range t.List {
			if !str(v) {
				return false
			}
		}
		return k.l == o
	}
	return false
}

// column returns the column a column-read node reads; false for any other
// node, and for nil.
func (n *progNode) column() (int, bool) {
	if n == nil {
		return 0, false
	}
	c, ok := n.e.(exec.Col)
	return c.Idx, ok
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
// touch is told each column the loop reads, then each column root the
// consumer takes as the program's bare use — what that costs depends on
// which consumers took the column before, which the caller knows — and the
// program's loop is charged, each kernel once however many roots share it. A
// program whose every root is a column or constant runs no loop, except an
// aggregate's, which loads its column roots for the table update.
func (p *Prog) Charge(s exec.Sink, c exec.Card, touch Touch) {
	l := &p.loops[0]
	l.read(c, touch)
	if l.runs() {
		chargeLoop(s, c, l)
	}
	if p.bare == hold {
		return
	}
	for _, r := range p.roots {
		if col, ok := r.column(); ok {
			touch(col, c, p.bare)
		}
	}
}

// runs reports whether the loop has anything to issue.
func (l *loop) runs() bool { return l.kernels > 0 || len(l.loads) > 0 }

// read tells touch each column the loop loads, over c, as the loop uses it.
func (l *loop) read(c exec.Card, touch Touch) {
	for i, n := range l.loads {
		if col, ok := n.column(); ok {
			touch(col, c, l.uses[i])
		}
	}
}

// ChargeFilter charges a filter program over the given number of batches,
// conjunct by conjunct: rows[i] candidates reach conjunct i and rows[i+1] of
// them survive it, so rows holds one entry per conjunct and then the rows
// leaving the last. Conjunct i's loop runs over its rows[i] candidates: a
// selection primitive (its loop, then chargeSelect) where the root is a
// kernel, a predicate-vector narrowing (chargeNarrow) where it is a bare
// column, which it reads, or a constant, which has no kernel to fuse.
func (p *Prog) ChargeFilter(s exec.Sink, batches float64, rows []float64, touch Touch) {
	if len(rows) != len(p.roots)+1 {
		panic(fmt.Sprintf("vec: %d row counts for a filter of %d conjuncts", len(rows), len(p.roots)))
	}
	for i, root := range p.roots {
		c := exec.Card{Batches: batches, In: rows[i], Out: rows[i+1]}
		if root.kernel() {
			l := &p.loops[i]
			l.read(c, touch)
			chargeLoop(s, c, l)
			chargeSelect(s, c, 0)
			continue
		}
		if col, ok := root.column(); ok {
			touch(col, c, Read)
		}
		chargeNarrow(s, c, 0, root.isConst(), 0)
	}
}

// eval runs a Compile program over the batch's selected positions, its
// kernels as one fused loop; root reads the results. The results are only
// valid until the pool is reset.
func (p *Prog) eval(ctx *exec.Ctx, pl *pool, b *Batch) {
	if l := &p.loops[0]; l.runs() {
		l.run(ctx, pl, b)
	}
}

// root returns root i's result over the batch the last eval ran on, and the
// address its consumer loads it from: a stored kernel's payload, a column
// taken from the batch as the program's bare use says. An aggregate's roots
// are held in registers (address zero), a constant broadcasts from one, and
// a nil root is nil.
func (p *Prog) root(ctx *exec.Ctx, b *Batch, i int) (*Vector, uint64) {
	r := p.roots[i]
	switch {
	case r == nil:
		return nil, 0
	case p.bare == hold, r.isConst():
		return r.val, 0
	}
	if col, ok := r.column(); ok {
		return b.take(ctx, col, p.bare)
	}
	return r.val, r.val.Addr()
}

// run runs the loop over the batch's selected positions: it binds each
// kernel to a scratch vector of the pool and takes each column the loop
// loads from the batch (Batch.take), charges the loop, then computes every
// kernel on the host, with the exact same helpers the row interpreter uses.
// The host writes every kernel's vector whether or not the loop stores it:
// what the loop issues is its charge, not the host's layout.
func (l *loop) run(ctx *exec.Ctx, pl *pool, b *Batch) {
	for _, nd := range l.nodes {
		if nd.kernel() {
			out := pl.get(b.cap)
			// Node results are read by later nodes of this eval and by its
			// caller, all before the pool is reset at the next batch.
			nd.val = out
		}
	}
	for i, nd := range l.loads {
		if col, ok := nd.column(); ok {
			nd.val, nd.from = b.take(ctx, col, l.uses[i])
		}
	}
	n := b.Len()
	chargeLoop(ctx, exec.Card{Batches: 1, In: float64(n)}, l)
	for _, nd := range l.nodes {
		if !nd.kernel() {
			continue
		}
		if t, ok := nd.e.(exec.BinOp); ok && evalNumeric(t.Op, nd.l.val, nd.r.val, nd.val, b) {
			continue
		}
		for k := 0; k < n; k++ {
			i := b.Pos(k)
			nd.val.Set(i, nd.at(i))
		}
	}
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
		// The kernel's work and payload traffic are charged with its fused
		// loop (chargeLoop in loop.run), whichever element loop runs.
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
	// As above: charged with the kernel's fused loop.
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
// a time: each conjunct's loop evaluates its new operand nodes over the
// selection the conjuncts before it left, then its root narrows that
// selection. An empty selection still runs the remaining conjuncts, at no
// elements: a chain dispatches once per root batch. stage, if not nil, is
// called with each conjunct's index before its loop, the first conjunct's
// excepted: a staged fetch reads there the runs the loop reads first.
func (p *Prog) filter(ctx *exec.Ctx, pl *pool, b *Batch, stage func(i int)) {
	for i, root := range p.roots {
		if i > 0 && stage != nil {
			stage(i)
		}
		c := exec.Card{Batches: 1, In: float64(b.Len())}
		if root.kernel() {
			p.loops[i].run(ctx, pl, b)
			root.selectInto(b)
			c.Out = float64(b.Len())
			chargeSelect(ctx, c, b.selAddr())
			continue
		}
		pred, at := root.val, uint64(0)
		if col, ok := root.column(); ok {
			pred, at = b.take(ctx, col, Read)
		}
		if o, ok := pred.numeric(); ok {
			b.narrowSel(func(i int) bool { return o.at(i) != 0 })
		} else {
			b.narrowSel(func(i int) bool { return exec.Truthy(pred.Get(i)) })
		}
		c.Out = float64(b.Len())
		chargeNarrow(ctx, c, at, pred.isConst, b.selAddr())
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
