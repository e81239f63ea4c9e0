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
// lazily backed batch comes out. fetch only queues an id; emit hands the
// whole queue to HeapFile.ReadRows, which issues per id what the row
// operators' FetchRow issues — the page fetch, the version-chain hops, the
// row's first line and the rest of the row — but on the batch's schedule:
// every id is known before any is read, so the page headers and the rows'
// first lines go out back to back as independent loads, and only the chain
// hops stay dependent. What the batch form also drops is the row
// schedule's per-candidate interpretation (exec.ChargeTuples): emit charges
// one dispatch per batch per primitive plus per-element payload traffic
// (ChargeFetch, and for a join the gather's dispatch and ChargeJoinGather),
// and hands the rows out by reference, so a consumer materializes only the
// columns it touches.
type fetcher struct {
	ctx  *exec.Ctx
	file *storage.HeapFile
	out  *Batch
	// ids queues the heap slots of the pending batch, entries the snapshot
	// cannot see included. emit reads them into rows and compacts both to
	// the visible entries: rows then backs out, the heap rows themselves or,
	// under a join, probe+inner rows assembled in buf (np probe columns in
	// front, copied at fetch, one per queued id), and ids are their slots.
	ids  []int
	rows []value.Row
	buf  []value.Row
	np   int
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
		ids:  make([]int, 0, width),
		rows: make([]value.Row, width),
		at:   ctx.Arena.Alloc(memsim.LineSize, memsim.LineSize),
	}
	if probe == nil {
		f.out.heap = file.Schema()
	} else {
		f.out.at = f.at
		f.np = len(probe.Columns)
		f.probeLines = RowLines(probe.RowWidth())
		f.innerLines = RowLines(file.Schema().RowWidth())
		f.buf = make([]value.Row, width)
	}
	return f
}

// full reports whether the pending batch has taken a batch width of ids.
func (f *fetcher) full() bool { return len(f.ids) == f.out.Cap() }

// fetch queues heap row id for the pending batch. Under a join the row
// enters behind the probe row at selection index k of probe, copied now, so
// the pending batch does not hold on to probe.
func (f *fetcher) fetch(id int, probe *Batch, k int) {
	if probe != nil {
		dst := f.buf[len(f.ids)]
		if dst == nil {
			dst = make(value.Row, len(f.out.Cols))
			f.buf[len(f.ids)] = dst
		}
		probe.Row(k, dst[:f.np])
	}
	f.ids = append(f.ids, id)
}

// emit reads the queued ids, hands out the visible rows as a lazily backed
// batch and charges the batch's share of the primitive; nil when nothing was
// queued since the last emit. The batch is empty when every entry was
// invisible to the snapshot (index entries outlive their heap versions).
func (f *fetcher) emit() (*Batch, error) {
	n := len(f.ids)
	if n == 0 {
		return nil, nil
	}
	rows := f.rows[:n]
	first, err := f.file.ReadRows(f.ids, rows)
	if err != nil {
		return nil, err
	}
	if f.out.heap != nil {
		f.out.at = first
	}
	k := 0
	for i, row := range rows {
		f.ctx.Poll()
		if row == nil {
			continue
		}
		if f.buf != nil {
			copy(f.buf[i][f.np:], row)
			row = f.buf[i]
		}
		rows[k], f.ids[k] = row, f.ids[i]
		k++
	}
	ChargeFetch(f.ctx, exec.Card{Batches: 1, In: float64(n), Out: float64(k)}, f.at)
	if f.buf != nil {
		ChargeDispatch(f.ctx, exec.Card{Batches: 1})
		ChargeJoinGather(f.ctx, exec.Card{In: float64(k)}, f.probeLines, f.innerLines, f.at)
	}
	f.out.SetRows(rows[:k])
	f.out.SetRowIDs(0, f.ids[:k])
	f.ids = f.ids[:0]
	return f.out, nil
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
			s.Ctx.Poll()
			s.f.fetch(s.it.RowID(), nil, 0)
			s.it.Next()
		}
		b, err := s.f.emit()
		if b == nil || err != nil {
			return nil, err
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
// kernel, then one batched descent (btree.SeekBatch) of every selected
// non-NULL key (a NULL key matches nothing, as in every join here), which
// goes down the index level by level with independent loads. Each key's
// iterator is walked only when the cursor reaches its probe element, its
// matches fetched behind their probe row and re-batched at batch width — a
// key's duplicates may span output batches — with the residual run as a
// kernel program over the joined batch. What a probe batch holds is one
// iterator per key, never a key's list of matches. Output order is the row
// join's: probe order, then index order within a key.
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

	probe *Batch
	// The probe batch's descended keys: keys[i] was read at selection
	// index sel[i] and its[i] walks its matches; cur is the one being
	// fetched. The three slices are reused by every probe batch.
	keys []value.Value
	sel  []int
	its  []btree.Iter
	cur  int
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
	j.probe, j.keys, j.sel, j.cur = nil, j.keys[:0], j.sel[:0], 0
	return j.Probe.Open()
}

// Next implements Operator: fills one output batch. The cursor (probe batch,
// descended key, its iterator's position) persists across calls.
func (j *IndexJoin) Next() (*Batch, error) {
	for {
		for !j.f.full() {
			if j.cur < len(j.keys) {
				j.Ctx.Poll()
				if it := &j.its[j.cur]; it.Valid() {
					j.f.fetch(it.RowID(), j.probe, j.sel[j.cur])
					it.Next()
				} else {
					j.cur++
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
			j.probe = b //lint:poolescape held only until the next Probe.Next pull; fetch copies each probe row out as it is matched
			j.keys, j.sel, j.cur = j.keys[:0], j.sel[:0], 0
			if b.Len() == 0 {
				continue
			}
			// The key kernel: a dispatch, the key column read (Batch.take),
			// then the key loads and per-key setup in bulk.
			ChargeDispatch(j.Ctx, exec.Card{Batches: 1})
			key, at := b.take(j.Ctx, j.ProbeKey, Read)
			if c := (exec.Card{In: float64(b.Len())}); key.Const() {
				ChargeJoinProbe(j.Ctx, c)
			} else {
				ChargeJoinProbe(j.Ctx, c, at)
			}
			if n := b.Len(); cap(j.keys) < n {
				j.keys, j.sel, j.its = make([]value.Value, 0, n), make([]int, 0, n), make([]btree.Iter, n)
			}
			for k := 0; k < b.Len(); k++ {
				if i := b.Pos(k); !key.IsNull(i) {
					j.keys = append(j.keys, key.Get(i))
					j.sel = append(j.sel, k)
				}
			}
			j.Index.SeekBatch(j.keys, j.its)
		}
		b, err := j.f.emit()
		if b == nil || err != nil {
			return nil, err
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
