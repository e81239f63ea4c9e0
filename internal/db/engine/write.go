package engine

import (
	"fmt"

	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

// Write is the root operator of an UPDATE or DELETE plan: it pulls the rows
// to change from a scan of the table — any access path, either executor —
// and applies each change by the row id the scan hands up beside the row,
// under the transaction bound to the engine. Every change is logged
// write-ahead and then pushed onto the slot's version chain; a write-write
// conflict ends the statement with txn.ErrWriteConflict and the caller
// decides whether to roll the transaction back. Next returns the rows as
// written (as deleted, for a DELETE), so draining the operator counts the
// rows affected.
//
// Opening the operator first reaps the table's dead rows (Engine.reap): the
// writer cleans up behind earlier writers, in its own profiled region.
type Write struct {
	E *Engine
	T *Table
	// Child yields the rows to change; it must be an exec.RowIDer.
	Child exec.Operator
	// Set computes a row's replacement from a copy of it, or the error
	// that ends the statement (a value the column cannot store); nil
	// deletes the row. It must leave indexed columns alone — the paper
	// defers write-query analysis and so does this engine's index
	// maintenance. SetNodes is the node count of the expressions it
	// evaluates, charged per row.
	Set      func(value.Row) (value.Row, error)
	SetNodes int

	tx        *txn.Txn
	ids       exec.RowIDer
	journaled map[storage.PageID]bool
}

// Schema implements exec.Operator.
func (w *Write) Schema() *catalog.Schema { return w.T.schema }

// Open implements exec.Operator.
func (w *Write) Open() error {
	w.tx = w.E.tx
	if w.tx == nil {
		return fmt.Errorf("engine: write to %q outside a transaction", w.T.Name)
	}
	ids, ok := w.Child.(exec.RowIDer)
	if !ok {
		return fmt.Errorf("engine: write to %q over %T, which yields no row ids", w.T.Name, w.Child)
	}
	w.ids = ids
	w.journaled = make(map[storage.PageID]bool)
	w.E.reap(w.T)
	return w.Child.Open()
}

// Next implements exec.Operator.
func (w *Write) Next() (value.Row, bool, error) {
	row, ok, err := w.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	id := w.ids.RowID()
	exec.ChargeWrite(w.E.Ctx, exec.Card{In: 1}, w.SetNodes)
	if w.Set == nil {
		w.E.logChange(w.tx, w.T, storage.RecDelete, id, nil, w.journaled)
		if err := w.T.File.DeleteTxn(w.tx, id); err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
	newRow, err := w.Set(row.Clone())
	if err != nil {
		return nil, false, err
	}
	for col := range w.T.Indexes {
		ci := w.T.schema.MustColIndex(col)
		if !value.Equal(row[ci], newRow[ci]) {
			return nil, false, fmt.Errorf("engine: UPDATE cannot change indexed column %q", col)
		}
	}
	w.E.logChange(w.tx, w.T, storage.RecUpdate, id, newRow, w.journaled)
	if _, err := w.T.File.UpdateTxn(w.tx, id, newRow); err != nil {
		return nil, false, err
	}
	return newRow, true, nil
}

// Close implements exec.Operator.
func (w *Write) Close() error { return w.Child.Close() }

// reap releases t's dead rows that no registered snapshot can see any more
// (storage.HeapFile.Reap) and removes their index entries — after the heap
// has let go of its lock, keeping storage before btree.
func (e *Engine) reap(t *Table) {
	for i, r := range t.File.Reap(e.shared.Txns.Oldest()) {
		e.Ctx.PollEvery(i)
		for col, idx := range t.Indexes {
			idx.Delete(r.Row[t.schema.MustColIndex(col)], r.ID)
		}
	}
}
