package vec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// Operator is the vectorized Volcano iterator: Next returns the next batch,
// or nil at end of stream. Returned batches are only valid until the
// following Next call (operators reuse their batch buffers).
type Operator interface {
	Schema() *catalog.Schema
	Open() error
	Next() (*Batch, error)
	Close() error
}

// Scan streams a heap file batch-at-a-time: one BatchScanner call per batch
// (page fetches plus one range load per page run — the same pages and lines
// as the row scan), lazily backed columns (a column costs what its
// consumers take of it, Batch.take: a fused read from the row for the
// first loop that reads it, one materialization over the selected rows for
// a second consumer, nothing for a column no one references), and an optional
// pushed-down predicate evaluated into the selection vector. One charge-free
// Poll bounds cancellation latency per batch instead of per tuple.
type Scan struct {
	Ctx  *exec.Ctx
	File *storage.HeapFile
	Pred exec.Expr
	// BatchSize overrides the L1D-derived batch width; 0 picks
	// BatchSizeFor on the context machine's hierarchy.
	BatchSize int

	bs   *storage.BatchScanner
	b    *Batch
	p    *pool
	pred *Prog
}

// Schema implements Operator.
func (s *Scan) Schema() *catalog.Schema { return s.File.Schema() }

// Open implements Operator.
func (s *Scan) Open() error {
	n := batchWidth(s.Ctx, s.BatchSize)
	s.bs = s.File.BatchScan(n)
	s.b = NewBatch(s.Ctx.Arena, s.Schema(), n)
	s.b.heap = s.Schema()
	s.p = newPool(s.Ctx)
	if s.Pred != nil {
		s.pred = CompileFilter(s.Pred)
	}
	return nil
}

// Next implements Operator.
func (s *Scan) Next() (*Batch, error) {
	s.Ctx.Poll()
	rows, base, ok := s.bs.NextBatch()
	if !ok {
		return nil, nil
	}
	b := s.b
	b.SetRows(rows)
	b.SetRowIDs(base, nil)
	b.at = s.bs.RowAddr()
	// One driver dispatch per batch: the scan's cursor bookkeeping and
	// batch handoff cost one tuple's worth of interpretation overhead.
	// Slots invisible to the snapshot arrive as nil holes; drop them via
	// the selection vector so kernels only see rows this snapshot may read.
	c := exec.Card{Batches: 1}
	var sel uint64
	for _, r := range rows {
		if r == nil {
			b.narrowSel(func(i int) bool { return rows[i] != nil })
			c.Out = float64(b.Len())
			sel = b.selAddr()
			break
		}
	}
	ChargeScan(s.Ctx, c, sel)
	if s.pred != nil {
		s.p.reset()
		s.pred.filter(s.Ctx, s.p, b)
	}
	return b, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// Reverse reports whether the scan handed its batches out back to front, as
// every other scan of a heap longer than the last-level cache does.
func (s *Scan) Reverse() bool { return s.bs != nil && s.bs.Reverse() }

// Prune narrows each batch to a subset of its columns. Vectors are shared
// with the child batch and a lazily backed batch stays lazily backed, each
// kept column in the state its consumers below left it — pruning moves no
// payload bytes, it only remaps the column slots (one batch dispatch).
type Prune struct {
	Ctx   *exec.Ctx
	Child Operator
	Cols  []int

	schema *catalog.Schema
	out    Batch
}

// Schema implements Operator.
func (p *Prune) Schema() *catalog.Schema {
	if p.schema == nil {
		p.schema = p.Child.Schema().Project(p.Cols)
	}
	return p.schema
}

// Open implements Operator.
func (p *Prune) Open() error {
	p.out.Cols = make([]*Vector, len(p.Cols))
	return p.Child.Open()
}

// Next implements Operator.
func (p *Prune) Next() (*Batch, error) {
	b, err := p.Child.Next()
	if b == nil || err != nil {
		return nil, err
	}
	p.Ctx.Poll()
	ChargePrune(p.Ctx, exec.Card{Batches: 1}, len(p.Cols))
	// The kept columns, in order, sharing their vectors: a lazily backed
	// batch hands its backing rows through with the slots remapped and each
	// slot's state carried over, so nothing is materialized here.
	o := &p.out
	o.N, o.Sel, o.cap = b.N, b.Sel, b.cap
	o.rows, o.base, o.ids, o.heap, o.at = b.rows, b.base, b.ids, b.heap, b.at
	o.raw, o.state = o.raw[:0], o.state[:0]
	for i, c := range p.Cols {
		o.Cols[i] = b.Cols[c]
		if b.rows != nil {
			o.raw = append(o.raw, b.rawCol(c))
			o.state = append(o.state, b.state[c])
		}
	}
	return o, nil
}

// Close implements Operator.
func (p *Prune) Close() error { return p.Child.Close() }

// Project computes its select list as one kernel program, an output column
// per root. Its output schema is the row executor's (exec.ProjectSchema).
type Project struct {
	Ctx   *exec.Ctx
	Child Operator
	Exprs []exec.Expr
	Names []string

	schema *catalog.Schema
	out    Batch
	p      *pool
	prog   *Prog
}

// Schema implements Operator.
func (p *Project) Schema() *catalog.Schema {
	if p.schema == nil {
		p.schema = exec.ProjectSchema(len(p.Exprs), p.Names)
	}
	return p.schema
}

// Open implements Operator.
func (p *Project) Open() error {
	p.out.Cols = make([]*Vector, len(p.Exprs))
	p.p = newPool(p.Ctx)
	p.prog = Compile(p.Exprs...)
	return p.Child.Open()
}

// Next implements Operator.
func (p *Project) Next() (*Batch, error) {
	b, err := p.Child.Next()
	if b == nil || err != nil {
		return nil, err
	}
	p.Ctx.Poll()
	// One driver dispatch per projected batch, like Scan and Prune: a
	// column-only projection reaches no kernel (its program hands the
	// child's vector back as-is), and without this charge it would emit
	// every batch with zero attributed work (TestProjectChargesDispatch).
	ChargeDispatch(p.Ctx, exec.Card{Batches: 1})
	p.p.reset()
	p.prog.eval(p.Ctx, p.p, b)
	for i := range p.out.Cols {
		p.out.Cols[i], _ = p.prog.root(p.Ctx, b, i)
	}
	p.out.N, p.out.Sel, p.out.cap = b.N, b.Sel, b.cap
	return &p.out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// Agg is batch-at-a-time hash aggregation: group keys and aggregate
// arguments are evaluated by one kernel program (CompileAgg), so a
// subexpression several of them share runs once per batch; then one
// table-update primitive per batch probes and updates the simulated hash
// table for every selected element, its arguments unstored. The groups live
// in an exec.GroupTable — the row GroupBy's table — so results are
// bit-identical to the row path. Groups are emitted in first-seen order,
// batch by batch.
type Agg struct {
	Ctx     *exec.Ctx
	Child   Operator
	GroupBy []exec.Expr
	Aggs    []exec.AggSpec

	schema *catalog.Schema
	out    *Batch
	groups []value.Row
	pos    int
	p      *pool
}

// Schema implements Operator.
func (g *Agg) Schema() *catalog.Schema {
	if g.schema == nil {
		g.schema = exec.AggSchema(len(g.GroupBy), g.Aggs)
	}
	return g.schema
}

// Open implements Operator: drains the child and builds the groups.
func (g *Agg) Open() error {
	if err := g.Child.Open(); err != nil {
		return err
	}
	defer g.Child.Close()

	table := exec.NewGroupTable(g.Ctx, len(g.GroupBy), g.Aggs)
	g.p = newPool(g.Ctx)
	prog := CompileAgg(g.GroupBy, g.Aggs)

	vs := make([]*Vector, len(g.GroupBy)+len(g.Aggs))
	vals := make([]value.Value, len(vs))
	keyVals, args := vals[:len(g.GroupBy)], vals[len(g.GroupBy):]
	for {
		b, err := g.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		g.Ctx.Poll()
		g.p.reset()
		prog.eval(g.Ctx, g.p, b)
		for i := range vs {
			vs[i], _ = prog.root(g.Ctx, b, i)
		}
		n := b.Len()
		// One table-update primitive for the whole batch: the probe
		// loads, accumulator stores and update arithmetic for n
		// elements, dispatched once, taking the arguments from the
		// program's loop in registers.
		ChargeAggUpdate(g.Ctx, exec.Card{Batches: 1, In: float64(n)}, len(g.Aggs), table.Base())
		for k := 0; k < n; k++ {
			i := b.Pos(k)
			for j, v := range vs {
				if v != nil {
					vals[j] = v.Get(i)
				}
			}
			table.Add(keyVals, args)
		}
	}

	// Finalization: one table-scan primitive over the accumulated groups —
	// each group's bucket is re-read and its accumulators folded into output
	// rows. This is real per-group work the meter must see; the row
	// executor's GroupBy.Open charges the same way.
	ChargeAggFinalize(g.Ctx, exec.Card{Batches: 1, In: float64(table.Len())}, len(g.GroupBy), len(g.Aggs), table.Base())
	g.groups = make([]value.Row, table.Len())
	for i := range table.Len() {
		g.groups[i] = table.Row(i)
	}
	g.pos = 0
	// The output batch is no wider than the groups there are to emit: a
	// handful of groups does not reserve a full batch of vector payload.
	g.out = NewBatch(g.Ctx.Arena, g.Schema(), max(1, min(len(g.groups), batchWidth(g.Ctx, 0))))
	return nil
}

// Next implements Operator: emits the next batch of groups, one
// materialization primitive per column.
func (g *Agg) Next() (*Batch, error) {
	if g.pos >= len(g.groups) {
		return nil, nil
	}
	g.Ctx.Poll()
	n := g.out.Cap()
	if rem := len(g.groups) - g.pos; rem < n {
		n = rem
	}
	for j, v := range g.out.Cols {
		ChargeMaterialize(g.Ctx, exec.Card{Batches: 1, In: float64(n)}, v.Addr())
		for i := 0; i < n; i++ {
			v.Set(i, g.groups[g.pos+i][j])
		}
	}
	g.pos += n
	g.out.N = n
	g.out.Sel = nil
	return g.out, nil
}

// Close implements Operator.
func (g *Agg) Close() error {
	g.groups = nil
	return nil
}

// RowSource adapts a vectorized chain back to the row Operator interface so
// it can sit under a row-at-a-time parent: a Limit, a write, or the drain
// loop.
// The adapter charges the boundary crossing (ChargeBoundary) against Ctx;
// when Set/M are provided the charges are attributed to M (the chain-top
// operator's meter), keeping the per-operator partition of a metered plan
// exact and aligned with the planner, which folds the same transition price
// into the chain-top node's estimate.
type RowSource struct {
	Ctx   *exec.Ctx
	Child Operator
	// Set/M optionally attribute the adapter's charges to a meter.
	Set *exec.MeterSet
	M   *exec.Meter

	b     *Batch
	k     int
	out   value.Row
	base  uint64
	lines int
}

// Schema implements exec.Operator.
func (r *RowSource) Schema() *catalog.Schema { return r.Child.Schema() }

// Open implements exec.Operator.
func (r *RowSource) Open() error {
	r.b, r.k = nil, 0
	schema := r.Child.Schema()
	r.out = make(value.Row, len(schema.Columns))
	if r.Ctx != nil {
		r.lines = RowLines(schema.RowWidth())
		r.base = r.Ctx.Arena.Alloc(uint64(r.lines)*memsim.LineSize, memsim.LineSize)
	}
	return r.Child.Open()
}

// charge prices one boundary event — a pulled batch or a handed-out row —
// under the adapter's meter window, if any.
func (r *RowSource) charge(c exec.Card) {
	if r.Ctx == nil {
		return
	}
	if r.Set != nil {
		r.Set.Enter(r.M)
		defer r.Set.Exit(r.M)
	}
	ChargeBoundary(r.Ctx, c, r.lines, r.base)
}

// Next implements exec.Operator. The returned row is reused; buffering
// parents clone it, per the Operator contract.
func (r *RowSource) Next() (value.Row, bool, error) {
	for {
		if r.b != nil && r.k < r.b.Len() {
			r.b.Row(r.k, r.out)
			r.charge(exec.Card{In: 1})
			r.k++
			return r.out, true, nil
		}
		b, err := r.Child.Next()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		r.charge(exec.Card{Batches: 1})
		r.b, r.k = b, 0 //lint:poolescape held only until the next Child.Next pull; the cursor drains the batch row-by-row before re-pulling
	}
}

// RowID implements exec.RowIDer over a chain that hands a scan's batches up
// unchanged but for their selection.
func (r *RowSource) RowID() int { return r.b.RowID(r.k - 1) }

// Close implements exec.Operator.
func (r *RowSource) Close() error { return r.Child.Close() }

// Metered wraps a vectorized operator with the same exclusive-counter
// attribution as exec.Metered wraps row operators: one shared
// exec.MeterSet can meter a mixed row/vector plan and the per-operator
// counters still partition the statement's counter delta exactly.
type Metered struct {
	Set   *exec.MeterSet
	Child Operator
	M     *exec.Meter
}

// Schema implements Operator.
func (m *Metered) Schema() *catalog.Schema { return m.Child.Schema() }

// Open implements Operator.
func (m *Metered) Open() error {
	m.Set.Enter(m.M)
	defer m.Set.Exit(m.M)
	return m.Child.Open()
}

// Next implements Operator.
func (m *Metered) Next() (*Batch, error) {
	m.Set.Enter(m.M)
	defer m.Set.Exit(m.M)
	b, err := m.Child.Next()
	if b != nil {
		m.M.AddBatch(b.N, b.Len())
	}
	return b, err
}

// Close implements Operator.
func (m *Metered) Close() error {
	m.Set.Enter(m.M)
	defer m.Set.Exit(m.M)
	return m.Child.Close()
}
