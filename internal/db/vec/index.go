package vec

import (
	"energydb/internal/db/btree"
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// fetcher is the one way index access becomes batches: row ids go in, a
// lazily backed batch comes out. Each id is read exactly as the row operators
// read it — HeapFile.ReadRow(id, false): the page fetch, the version-chain
// hops and a dependent load of the row's first line, all inside storage — so
// the data-dependent traffic of an index operator does not depend on its
// mode. What the batch form drops is the row schedule's per-candidate
// interpretation (exec.ChargeTuples): emit charges one dispatch per batch per
// primitive plus per-element payload traffic (ChargeFetch, and for a join the
// gather's dispatch and ChargeJoinGather), and hands the rows out by
// reference, so a consumer materializes only the columns it touches.
type fetcher struct {
	ctx  *exec.Ctx
	file *storage.HeapFile
	out  *Batch
	// rows backs out: the fetched heap rows themselves, or, under a join,
	// probe+inner rows assembled in buf (np probe columns in front); ids are
	// the heap slots they were fetched from.
	rows []value.Row
	ids  []int
	buf  []value.Row
	np   int
	// seen counts the ids fetched into the pending batch, entries the
	// snapshot cannot see included; it bounds a batch at its width.
	seen int
	// at is the scratch line the id list and the assembled rows are charged
	// against.
	at                     uint64
	probeLines, innerLines int
}

// newFetcher builds a fetcher over file emitting batches of the given schema
// and width: file's own schema for a scan, probe's columns followed by file's
// for a join (probe nil otherwise).
func newFetcher(ctx *exec.Ctx, file *storage.HeapFile, schema, probe *catalog.Schema, width int) *fetcher {
	width = batchWidth(ctx, width)
	f := &fetcher{
		ctx: ctx, file: file,
		out:  NewBatch(ctx.Arena, schema, width),
		rows: make([]value.Row, 0, width),
		ids:  make([]int, 0, width),
		at:   ctx.Arena.Alloc(memsim.LineSize, memsim.LineSize),
	}
	if probe != nil {
		f.np = len(probe.Columns)
		f.probeLines = RowLines(probe.RowWidth())
		f.innerLines = RowLines(file.Schema().RowWidth())
		f.buf = make([]value.Row, width)
	}
	return f
}

// full reports whether the pending batch has taken a batch width of ids.
func (f *fetcher) full() bool { return f.seen == f.out.Cap() }

// fetch reads heap row id into the pending batch, dropping it when no version
// is visible to the snapshot (index entries outlive their heap versions).
// Under a join the row enters behind the probe row at selection index k of
// probe, copied now, so the pending batch does not hold on to probe.
func (f *fetcher) fetch(id int, probe *Batch, k int) error {
	f.ctx.PollEvery(f.seen)
	f.seen++
	row, visible, err := f.file.ReadRow(id, false)
	if err != nil || !visible {
		return err
	}
	if probe != nil {
		dst := f.buf[len(f.rows)]
		if dst == nil {
			dst = make(value.Row, len(f.out.Cols))
			f.buf[len(f.rows)] = dst
		}
		probe.Row(k, dst[:f.np])
		copy(dst[f.np:], row)
		row = dst
	}
	f.rows = append(f.rows, row)
	f.ids = append(f.ids, id)
	return nil
}

// emit hands out the pending rows as a lazily backed batch and charges the
// batch's share of the primitive; nil when nothing was fetched since the last
// emit. The batch is empty when every entry fetched was invisible.
func (f *fetcher) emit() *Batch {
	if f.seen == 0 {
		return nil
	}
	ChargeFetch(f.ctx, exec.Card{Batches: 1, In: float64(f.seen), Out: float64(len(f.rows))}, f.at)
	if f.buf != nil {
		ChargeDispatch(f.ctx, exec.Card{Batches: 1})
		ChargeJoinGather(f.ctx, exec.Card{In: float64(len(f.rows))}, f.probeLines, f.innerLines, f.at)
	}
	f.out.SetRows(f.rows)
	f.out.SetRowIDs(0, f.ids)
	f.rows, f.ids, f.seen = f.rows[:0], f.ids[:0], 0
	return f.out
}

// IndexScan is the batch form of exec.IndexScan: it walks the index over
// [Lo, Hi] (inclusive; nil is unbounded), fetches a batch width of entries
// at a time in index order, and runs the residual as a kernel program that
// narrows the selection.
type IndexScan struct {
	Ctx    *exec.Ctx
	File   *storage.HeapFile
	Tree   *btree.Tree
	Lo, Hi *value.Value
	// Filter applies residual predicates after the heap fetch.
	Filter exec.Expr
	// BatchSize overrides the L1D-derived batch width; 0 picks BatchSizeFor.
	BatchSize int

	it   *btree.Iter
	f    *fetcher
	p    *pool
	pred *Prog
}

// Schema implements Operator.
func (s *IndexScan) Schema() *catalog.Schema { return s.File.Schema() }

// Open implements Operator.
func (s *IndexScan) Open() error {
	s.it = s.Tree.Range(s.Lo, s.Hi)
	s.f = newFetcher(s.Ctx, s.File, s.Schema(), nil, s.BatchSize)
	s.p = newPool(s.Ctx)
	if s.Filter != nil {
		s.pred = CompileFilter(s.Filter)
	}
	return nil
}

// Next implements Operator.
func (s *IndexScan) Next() (*Batch, error) {
	for {
		s.Ctx.Poll()
		for !s.f.full() && s.it.Valid() {
			id := s.it.RowID()
			s.it.Next()
			if err := s.f.fetch(id, nil, 0); err != nil {
				return nil, err
			}
		}
		b := s.f.emit()
		if b == nil {
			return nil, nil
		}
		if b.N == 0 {
			continue
		}
		if s.pred != nil {
			s.p.reset()
			s.pred.filter(s.Ctx, s.p, b)
		}
		return b, nil
	}
}

// Close implements Operator.
func (s *IndexScan) Close() error { return nil }

// IndexJoin is the batch form of exec.IndexJoin: per probe batch one key
// kernel, then an index lookup per selected non-NULL key (a NULL key matches
// nothing, as in every join here) whose matches are fetched behind their
// probe row and re-batched at batch width — a key's duplicates may span
// output batches — with the residual run as a kernel program over the
// joined batch. Output order is the row join's: probe order, then index
// order within a key.
type IndexJoin struct {
	Ctx      *exec.Ctx
	Probe    Operator
	Inner    *storage.HeapFile
	Index    *btree.Tree
	ProbeKey int
	// Residual filters the concatenated row.
	Residual exec.Expr
	// BatchSize overrides the L1D-derived output batch width; 0 picks
	// BatchSizeFor.
	BatchSize int

	schema *catalog.Schema
	f      *fetcher
	p      *pool
	pred   *Prog

	probe   *Batch
	key     *Vector
	pk      int // next selection index within the probe batch
	curK    int // selection index whose matches are being fetched
	matches []int
	mi      int
}

// Schema implements Operator (probe columns first, like the row join).
func (j *IndexJoin) Schema() *catalog.Schema {
	if j.schema == nil {
		j.schema = j.Probe.Schema().Concat(j.Inner.Schema())
	}
	return j.schema
}

// Open implements Operator.
func (j *IndexJoin) Open() error {
	j.f = newFetcher(j.Ctx, j.Inner, j.Schema(), j.Probe.Schema(), j.BatchSize)
	j.p = newPool(j.Ctx)
	if j.Residual != nil {
		j.pred = CompileFilter(j.Residual)
	}
	j.probe, j.matches, j.mi = nil, nil, 0
	return j.Probe.Open()
}

// Next implements Operator: fills one output batch. The cursor (probe batch,
// element, position in its matches) persists across calls.
func (j *IndexJoin) Next() (*Batch, error) {
	for {
		for !j.f.full() {
			if j.mi < len(j.matches) {
				j.mi++
				if err := j.f.fetch(j.matches[j.mi-1], j.probe, j.curK); err != nil {
					return nil, err
				}
				continue
			}
			if j.probe != nil && j.pk < j.probe.Len() {
				j.curK = j.pk
				j.pk++
				if i := j.probe.Pos(j.curK); !j.key.IsNull(i) {
					j.matches, j.mi = j.Index.Lookup(j.key.Get(i)), 0
				}
				continue
			}
			b, err := j.Probe.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				j.probe = nil
				break
			}
			j.Ctx.Poll()
			j.probe, j.pk = b, 0 //lint:poolescape held only until the next Probe.Next pull; fetch copies each probe row out as it is matched
			if b.Len() == 0 {
				continue
			}
			// The key kernel: a dispatch, the key column (materialized on
			// first touch), then the key loads and per-key setup in bulk.
			ChargeDispatch(j.Ctx, exec.Card{Batches: 1})
			j.key = b.Col(j.Ctx, j.ProbeKey)
			if c := (exec.Card{In: float64(b.Len())}); j.key.Const() {
				ChargeJoinProbe(j.Ctx, c)
			} else {
				ChargeJoinProbe(j.Ctx, c, j.key.Addr())
			}
		}
		b := j.f.emit()
		if b == nil {
			return nil, nil
		}
		if b.N == 0 {
			continue
		}
		if j.pred != nil {
			j.p.reset()
			j.pred.filter(j.Ctx, j.p, b)
		}
		return b, nil
	}
}

// Close implements Operator.
func (j *IndexJoin) Close() error { return j.Probe.Close() }
