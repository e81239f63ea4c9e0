// Package vec mirrors the vectorized executor's cancellation surface: a
// batch Operator interface, a raw batch cursor (NextBatch), and kernels
// that poll at batch granularity instead of per tuple. It exercises the
// cancelpoll analyzer's batch rules: an uncancellable batch loop is a
// finding, while a bounded per-batch materialization loop under a
// batch-granularity checkpoint is accepted.
package vec

import exec "fixture.example/cancelpoll"

// Batch mirrors the vectorized unit of exchange.
type Batch struct {
	Rows []exec.Row
}

// Operator is the vectorized Volcano interface; every implementation polls
// in Next, so a driver loop pulling batches from it inherits the polling.
type Operator interface {
	Open() error
	Next() (*Batch, error)
	Close() error
}

// scanner is a raw batch cursor (the storage batch scanner's shape): not an
// Operator, so loops driving it must poll themselves.
type scanner struct {
	n int
}

// NextBatch returns the next bounded slice of rows.
func (s *scanner) NextBatch() ([]exec.Row, bool) {
	s.n--
	return nil, s.n >= 0
}

// materializeUnpolled drives the batch cursor and materializes every batch
// without a single checkpoint: the uncancellable vectorized kernel.
func materializeUnpolled(ctx *exec.Ctx, s *scanner) int {
	n := 0
	for {
		rows, ok := s.NextBatch()
		if !ok {
			return n
		}
		for range rows {
			n++
		}
	}
}

// materializePolled is the accepted vectorized shape: one free checkpoint
// per batch plus a charged per-primitive dispatch; the inner loop is
// bounded by the batch width and inherits the batch-granularity polling.
func materializePolled(ctx *exec.Ctx, s *scanner) int {
	n := 0
	for {
		ctx.Poll()
		rows, ok := s.NextBatch()
		if !ok {
			return n
		}
		ctx.TupleCost()
		for range rows {
			n++
		}
	}
}

// drain pulls from the vectorized Operator without its own checkpoint:
// accepted, each child's Next polls once per batch.
func drain(ctx *exec.Ctx, op Operator) (int, error) {
	n := 0
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return n, err
		}
		n += len(b.Rows)
	}
}

// buildChunked is the hash-join build / sort-extraction kernel shape: a
// materialized buffer walked in batch-width chunks, ranging over the
// bounded sub-slice rows[lo:hi], with a batch-granularity PollEvery at the
// head of each chunk. Accepted: the uncancellable stretch is one chunk.
func buildChunked(ctx *exec.Ctx, rows []exec.Row, chunk int) int {
	n := 0
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		ctx.PollEvery(lo)
		for range rows[lo:hi] {
			n++
		}
	}
	return n
}

// buildChunkedUnpolled walks the same chunked shape without any checkpoint
// in the enclosing scope: still a finding — chunking alone does not make
// the loop cancellable.
func buildChunkedUnpolled(rows []exec.Row, chunk int) int {
	n := 0
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		for range rows[lo:hi] {
			n++
		}
	}
	return n
}

// extractKeys is the Sort.Open origin bug: it drains its child inline (each
// pull is a checkpoint) and then walks the whole materialized buffer with
// no poll. The polling before the loop earns no credit — the buffer is as
// long as the input, not one batch — so this is a finding.
func extractKeys(ctx *exec.Ctx, op Operator) (int, error) {
	var rows []exec.Row
	for {
		b, err := op.Next()
		if err != nil {
			return 0, err
		}
		if b == nil {
			break
		}
		rows = append(rows, b.Rows...)
	}
	n := 0
	for range rows {
		n++
	}
	return n, nil
}

// colMaterialize is the Batch.Col shape: the rows are one Batch's payload
// and the per-batch TupleCost dispatch is guaranteed ahead of the loop.
// Accepted.
func colMaterialize(ctx *exec.Ctx, b *Batch) int {
	ctx.TupleCost()
	n := 0
	for range b.Rows {
		n++
	}
	return n
}
