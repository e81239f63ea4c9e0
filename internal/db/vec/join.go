package vec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// HashJoin is the batch-at-a-time equijoin: the build side is drained into
// a row buffer and hashed in batch-width chunks (one dispatch per chunk
// instead of per row), then each probe batch runs one key-hash kernel and
// one probe pass, and matches are gathered into an output batch charged one
// gather dispatch per batch plus two block row-copies per match, backed
// lazily by the assembled rows (like the sort's emit), so a parent kernel
// pays materialization only for the columns it actually touches.
//
// The table is the row join's own exec.HashTable, because the hardware
// would not change shape just because the driver batched: the same bucket
// heads, chain hops and build rows, at the same addresses, in a table usually
// larger than L1D. What vectorization removes is the per-tuple
// interpretation — the dispatch, the probe-row clone, the per-match output
// copy — which is exactly the L1D/Reg2L1D component the paper's micro
// analysis prices. What it changes is the schedule: a probe batch's keys are
// all hashed before any chain is walked, so their bucket heads, and a
// gathered batch's build-row first lines, are independent loads issued back
// to back; build inserts and chain hops stay dependent.
//
// NULL join keys never match (including NULL = NULL): both joins build their
// keys with exec.JoinKey, so build rows with a NULL key are never inserted and
// probe elements with a NULL key are never probed.
type HashJoin struct {
	Ctx   *exec.Ctx
	Build Operator
	Probe Operator
	// BuildKey and ProbeKey are the equijoin's key columns on each side.
	BuildKey int
	ProbeKey int
	// Residual is an optional non-equi predicate over the joined row,
	// evaluated vectorized over the gathered output batch.
	Residual exec.Expr
	// BatchSize overrides the L1D-derived build-chunk and output-batch
	// width; 0 picks BatchSizeFor.
	BatchSize int

	schema    *catalog.Schema
	buildRows []value.Row
	table     exec.HashTable
	buildBase uint64
	width     uint64 // build-buffer bytes per row (a zero-width row takes 8)
	bufBytes  uint64 // build-buffer size (an empty buffer takes one line)
	rowBase   uint64 // scratch line the assembled-row traffic is charged against

	out   *Batch
	pairP []int32 // per output position: probe batch position
	pairB []int32 // per output position: build row index

	probe   *Batch
	keys    []value.Key
	keyOK   []bool
	pk      int // next selection index within the probe batch
	curK    int // selection index whose bucket chain is being drained
	matches []int32
	mi      int

	p        *pool
	residual *Prog
	rowBuf   []value.Row // reused backing rows for the lazily backed output
}

// Schema implements Operator (probe columns first, like the row join).
func (j *HashJoin) Schema() *catalog.Schema {
	if j.schema == nil {
		j.schema = j.Probe.Schema().Concat(j.Build.Schema())
	}
	return j.schema
}

// Open implements Operator: drains the build side batch-at-a-time into a
// row buffer, then hashes the buffer in batch-width chunks.
func (j *HashJoin) Open() error {
	if err := j.Build.Open(); err != nil {
		return err
	}
	ncols := len(j.Build.Schema().Columns)
	var rows []value.Row
	for {
		b, err := j.Build.Next()
		if err != nil {
			j.Build.Close()
			return err
		}
		if b == nil {
			break
		}
		j.Ctx.Poll()
		n := b.Len()
		if n == 0 {
			continue
		}
		// One collect dispatch per batch; the copy into the build buffer is
		// charged once the buffer address exists (below).
		ChargeDispatch(j.Ctx, exec.Card{Batches: 1})
		for k := 0; k < n; k++ {
			dst := make(value.Row, ncols)
			b.Row(k, dst)
			rows = append(rows, dst)
		}
	}
	if err := j.Build.Close(); err != nil {
		return err
	}
	j.buildRows = rows

	j.width = uint64(j.Build.Schema().RowWidth())
	if j.width == 0 {
		j.width = 8
	}
	rowLines := RowLines(int(j.width))
	j.bufBytes = uint64(len(rows)) * j.width
	if j.bufBytes == 0 {
		j.bufBytes = memsim.LineSize
	}
	j.buildBase = j.Ctx.Arena.Alloc(j.bufBytes, memsim.LineSize)
	j.table = exec.NewHashTable(j.Ctx, len(rows))

	chunk := batchWidth(j.Ctx, j.BatchSize)
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		// Batch-granularity cancellation plus one build-kernel dispatch per
		// chunk: hash arithmetic, the buffer copy, and the key loads are
		// charged in bulk; bucket entries stay per-row dependent loads.
		j.Ctx.PollEvery(lo)
		ChargeJoinBuild(j.Ctx, exec.Card{Batches: 1, In: float64(hi - lo)}, rowLines, j.buildBase+uint64(lo)*j.width)
		for i, r := range rows[lo:hi] {
			key, ok := exec.JoinKey(r[j.BuildKey])
			if !ok {
				continue
			}
			ChargeJoinInsert(j.Ctx, exec.Card{In: 1}, j.table.Insert(key, lo+i), j.table.Bytes())
		}
	}

	j.out = NewBatch(j.Ctx.Arena, j.Schema(), chunk)
	j.rowBase = j.Ctx.Arena.Alloc(memsim.LineSize, memsim.LineSize)
	j.out.at = j.rowBase
	j.rowBuf = make([]value.Row, chunk)
	for i := range j.rowBuf {
		j.rowBuf[i] = make(value.Row, len(j.Schema().Columns))
	}
	j.p = newPool(j.Ctx)
	if j.Residual != nil {
		j.residual = CompileFilter(j.Residual)
	}
	j.probe = nil
	j.pk = 0
	j.matches = nil
	j.mi = 0
	return j.Probe.Open()
}

// probeKeys is the vectorized key-hash kernel: one dispatch per probe
// batch, the key column read (Batch.take), bulk key loads and
// hash arithmetic, then a bucket-head load per non-NULL key element —
// independent, since every head's address follows from its key alone.
func (j *HashJoin) probeKeys(b *Batch) {
	n := b.Len()
	ChargeDispatch(j.Ctx, exec.Card{Batches: 1})
	kv, at := b.take(j.Ctx, j.ProbeKey, Read)
	if c := (exec.Card{In: float64(n)}); kv.Const() {
		ChargeJoinProbe(j.Ctx, c)
	} else {
		ChargeJoinProbe(j.Ctx, c, at)
	}
	j.keys = j.keys[:0]
	j.keyOK = j.keyOK[:0]
	for k := 0; k < n; k++ {
		key, ok := exec.JoinKey(kv.Get(b.Pos(k)))
		if ok {
			ChargeBucketHead(j.Ctx, exec.Card{In: 1}, j.table.Head(key), j.table.Bytes())
		}
		j.keys = append(j.keys, key)
		j.keyOK = append(j.keyOK, ok)
	}
}

// Next implements Operator: fills one output batch of matches. The probe
// cursor (batch, element, bucket chain position) persists across calls, so
// a bucket chain longer than the output batch resumes where it stopped.
func (j *HashJoin) Next() (*Batch, error) {
	out := j.out
	capN := out.Cap()
	j.pairP = j.pairP[:0]
	j.pairB = j.pairB[:0]
	for {
		// Drain the current bucket chain: each entry is a pointer chase.
		// Dispatch is charged per probe batch (probeKeys) and per emitted
		// batch (gather); each hop charges its dependent load through
		// exec.ChargeChainHop.
		for j.mi < len(j.matches) && len(j.pairP) < capN {
			exec.ChargeChainHop(j.Ctx, exec.Card{In: 1}, j.table.Hop(j.mi+1), j.table.Bytes())
			j.pairP = append(j.pairP, int32(j.curK))
			j.pairB = append(j.pairB, j.matches[j.mi])
			j.mi++
		}
		if len(j.pairP) == capN {
			break
		}
		if j.probe != nil && j.pk < j.probe.Len() {
			k := j.pk
			j.pk++
			if !j.keyOK[k] {
				continue
			}
			j.curK = k
			j.matches = j.table.Lookup(j.keys[k])
			j.mi = 0
			continue
		}
		// The current probe batch is exhausted. Emit pending pairs before
		// pulling the next batch — gather still reads this batch's vectors.
		if len(j.pairP) > 0 && j.probe != nil {
			break
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
		j.probe = b //lint:poolescape held only until the next Probe.Next pull; every row is gathered out before re-pulling
		j.pk = 0
		if b.Len() == 0 {
			continue
		}
		j.probeKeys(b)
	}
	if len(j.pairP) == 0 {
		return nil, nil
	}
	j.gather(out)
	if j.residual != nil {
		j.p.reset()
		j.residual.filter(j.Ctx, j.p, out)
	}
	return out, nil
}

// gather emits the matched pairs as an output batch backed lazily by the
// assembled rows. The charge is one gather dispatch per batch plus the real
// row assembly — two block copies per pair: the probe row out of the
// (cache-hot, just-produced) probe batch and the build row out of the build
// buffer, whose scattered first-line access keeps real buffer addresses so
// the simulator sees the table-sized working set. Every pair's build row is
// known before any is read, so those first lines are independent loads. No
// per-column vector traffic happens here: the output stays rows-backed, and
// a parent kernel pays (Batch.take) only for the columns it
// actually touches — the consumer's demand, not the join's supply — so
// unreferenced columns of wide rows move nothing beyond the block copy.
func (j *HashJoin) gather(out *Batch) {
	np := len(j.Probe.Schema().Columns)
	ChargeDispatch(j.Ctx, exec.Card{Batches: 1})
	for _, bi := range j.pairB {
		// First-line load of the matched build row at its real buffer
		// offset; trailing lines of the row ride the open line(s).
		ChargeGatherRow(j.Ctx, exec.Card{In: 1}, j.buildBase+uint64(bi)*j.width%j.bufBytes, float64(j.bufBytes))
	}
	ChargeJoinGather(j.Ctx, exec.Card{In: float64(len(j.pairP))},
		RowLines(j.Probe.Schema().RowWidth()), RowLines(int(j.width)), j.rowBase)
	for i := range j.pairP {
		dst := j.rowBuf[i]
		j.probe.Row(int(j.pairP[i]), dst[:np])
		copy(dst[np:], j.buildRows[j.pairB[i]])
	}
	out.SetRows(j.rowBuf[:len(j.pairP)])
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table = exec.HashTable{}
	j.buildRows = nil
	return j.Probe.Close()
}
