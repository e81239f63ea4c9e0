package vec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// Sort is the batch-at-a-time sort: sort keys are extracted in bulk — one
// kernel program over the keys per input batch, through the same typed
// vectors every other kernel uses — into the row sort's column-major key
// store (exec.SortKeys), the row sort's ordering pass (exec.SortRun.Order)
// produces a selection vector over the collected rows, and output batches are emitted lazily backed by the
// sorted run, so a parent kernel only materializes the columns it actually
// touches and no per-row output copy happens at all.
type Sort struct {
	Ctx   *exec.Ctx
	Child Operator
	Keys  []exec.SortKey
	// BatchSize overrides the L1D-derived output batch width; 0 picks
	// BatchSizeFor.
	BatchSize int

	rows    []value.Row
	idx     []int32 // ordering selection vector over rows
	run     exec.SortRun
	keyBase uint64
	pos     int
	out     *Batch
	chunk   []value.Row
	p       *pool
}

// Schema implements Operator.
func (s *Sort) Schema() *catalog.Schema { return s.Child.Schema() }

// Open implements Operator: drains the child batch-at-a-time, extracting
// key columns in bulk, then orders the collected rows.
func (s *Sort) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	ncols := len(s.Child.Schema().Columns)
	width := batchWidth(s.Ctx, s.BatchSize)
	s.p = newPool(s.Ctx)
	s.keyBase = s.Ctx.Arena.Alloc(uint64(width)*8*uint64(len(s.Keys)+1), memsim.LineSize)
	s.rows = s.rows[:0]
	keys := exec.NewSortKeys(s.Keys)
	prog := CompileSort(s.Keys)
	var codes []storage.Coded // the collected rows keep the child's codes
	for {
		b, err := s.Child.Next()
		if err != nil {
			s.Child.Close()
			return err
		}
		if b == nil {
			break
		}
		s.Ctx.Poll()
		n := b.Len()
		if n == 0 {
			continue
		}
		codes = b.codes
		// Bulk key extraction: the keys' program computes each computed key
		// as a typed vector in one loop, then one packing primitive per key
		// appends it to the columnar key store, key by key, reading a column
		// key straight from the batch.
		s.p.reset()
		prog.eval(s.Ctx, s.p, b)
		for kc := range s.Keys {
			kv, at := prog.root(s.Ctx, b, kc)
			ChargeSortPack(s.Ctx, exec.Card{Batches: 1, In: float64(n)}, at, kv.Const(), s.keyBase)
			for k := 0; k < n; k++ {
				keys.Append(kc, kv.Get(b.Pos(k)))
			}
		}
		// Collect the rows behind the keys (one dispatch per batch; the
		// sort-buffer entry stores are charged when the buffer is sized).
		ChargeDispatch(s.Ctx, exec.Card{Batches: 1})
		for k := 0; k < n; k++ {
			dst := make(value.Row, ncols)
			b.Row(k, dst)
			s.rows = append(s.rows, dst)
		}
	}
	if err := s.Child.Close(); err != nil {
		return err
	}

	// The sort buffer: one pointer-sized entry per row, written in
	// batch-width chunks with batch-granularity cancellation.
	n := len(s.rows)
	s.run = exec.NewSortRun(s.Ctx, n)
	for lo := 0; lo < n; lo += width {
		hi := lo + width
		if hi > n {
			hi = n
		}
		s.Ctx.PollEvery(lo)
		ChargeDispatch(s.Ctx, exec.Card{Batches: 1})
		exec.ChargeSortStore(s.Ctx, exec.Card{In: float64(hi - lo)}, s.run.Entry(lo))
	}

	// Ordering pass: the row sort's, over the columnar key store.
	s.idx = s.run.Order(s.Ctx, n, keys)
	// Final placement: the ordering selection vector is stored in one bulk
	// pass instead of a per-row store loop.
	exec.ChargeSortStore(s.Ctx, exec.Card{In: float64(n)}, s.run.Entry(0))

	s.pos = 0
	// The output batch is no wider than the rows there are to emit, the way
	// Agg sizes its own: a handful of rows does not reserve a full batch.
	s.out = NewBatch(s.Ctx.Arena, s.Schema(), max(1, min(n, width)))
	s.out.codes = codes
	s.chunk = make([]value.Row, 0, width)
	return nil
}

// Next implements Operator: emits the next batch of the sorted run, lazily
// backed by the ordered rows — one dispatch and one streaming read of the
// run per batch, no per-row output copy.
func (s *Sort) Next() (*Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	s.Ctx.Poll()
	n := s.out.Cap()
	if rem := len(s.rows) - s.pos; rem < n {
		n = rem
	}
	ChargeSortEmit(s.Ctx, exec.Card{Batches: 1, In: float64(n)}, s.run.Entry(s.pos))
	s.out.at = s.run.Entry(s.pos)
	s.chunk = s.chunk[:0]
	for _, j := range s.idx[s.pos : s.pos+n] {
		s.chunk = append(s.chunk, s.rows[j])
	}
	s.out.SetRows(s.chunk)
	s.pos += n
	return s.out, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows = nil
	s.idx = nil
	return nil
}
