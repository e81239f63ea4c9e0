package exec

import (
	"energydb/internal/db/btree"
	"energydb/internal/db/catalog"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
)

// HashJoin builds a hash table on the build side and probes it with the
// probe side (PostgreSQL/MySQL-style equijoin). Build stores and probe
// chains are simulated: probes are dependent loads into a table that is
// usually larger than L1D, one of the ways complex executors shift energy
// away from the L1D cache (Section 3.3).
type HashJoin struct {
	Ctx   *Ctx
	Build Operator
	Probe Operator
	// BuildKey and ProbeKey are the equijoin's key columns on each side.
	BuildKey int
	ProbeKey int
	// Residual is an optional non-equi predicate over the joined row.
	Residual Expr

	schema   *catalog.Schema
	rows     []value.Row
	table    HashTable
	probeRow value.Row
	matches  []int32
	matchIdx int
	out      value.Row
	resNodes int
}

// Schema implements Operator.
func (j *HashJoin) Schema() *catalog.Schema {
	if j.schema == nil {
		j.schema = j.Probe.Schema().Concat(j.Build.Schema())
	}
	return j.schema
}

// Open implements Operator: drains the build side into the hash table.
func (j *HashJoin) Open() error {
	rows, err := Collect(j.Build)
	if err != nil {
		return err
	}
	j.rows = rows
	j.table = NewHashTable(j.Ctx, len(rows))
	for i, r := range rows {
		j.Ctx.PollEvery(i)
		key, ok := JoinKey(r[j.BuildKey])
		if !ok {
			// A NULL key can never satisfy an equality, so the row can
			// never match; keep it out of the table entirely.
			continue
		}
		ChargeHashBuild(j.Ctx, Card{In: 1}, j.table.Insert(key, i), j.table.Bytes())
	}
	j.resNodes = ExprNodes(j.Residual)
	return j.Probe.Open()
}

// Next implements Operator.
func (j *HashJoin) Next() (value.Row, bool, error) {
	for {
		if j.matchIdx < len(j.matches) {
			b := j.rows[j.matches[j.matchIdx]]
			j.matchIdx++
			ChargeChainHop(j.Ctx, Card{In: 1}, j.table.Hop(j.matchIdx), j.table.Bytes())
			if j.out == nil {
				j.out = make(value.Row, 0, len(j.probeRow)+len(b))
			}
			j.out = append(j.out[:0], j.probeRow...)
			j.out = append(j.out, b...)
			if chargeCandidate(j.Ctx, j.Residual, j.resNodes, j.out, len(j.out)*8) {
				return j.out, true, nil
			}
			continue
		}
		row, ok, err := j.Probe.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		key, ok := JoinKey(row[j.ProbeKey])
		if !ok {
			// NULL never equals anything (not even NULL): skip the probe.
			continue
		}
		j.probeRow = row.Clone()
		ChargeHashProbe(j.Ctx, Card{In: 1}, j.table.Head(key), j.table.Bytes())
		j.matches = j.table.Lookup(key)
		j.matchIdx = 0
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table = HashTable{}
	j.rows = nil
	return j.Probe.Close()
}

// IndexJoin is an index nested-loop join: for each outer row it descends
// the inner table's index and fetches matching rows — SQLite's only join
// strategy and the preferred plan for selective joins elsewhere.
type IndexJoin struct {
	Ctx   *Ctx
	Outer Operator
	Inner *storage.HeapFile
	// InnerReads is what a fetch reads of the inner heap (zero: every column).
	InnerReads storage.Reads
	Index      *btree.Tree
	OuterKey   int
	// Residual filters the concatenated row.
	Residual Expr

	schema   *catalog.Schema
	outerRow value.Row
	it       btree.Iter // reused by every lookup, with matches' buffer
	matches  []int
	matchIdx int
	out      value.Row
	resNodes int
}

// Schema implements Operator.
func (j *IndexJoin) Schema() *catalog.Schema {
	if j.schema == nil {
		j.schema = j.Outer.Schema().Concat(j.Inner.Schema())
	}
	return j.schema
}

// Open implements Operator.
func (j *IndexJoin) Open() error {
	j.resNodes = ExprNodes(j.Residual)
	return j.Outer.Open()
}

// Next implements Operator.
func (j *IndexJoin) Next() (value.Row, bool, error) {
	for {
		if j.matchIdx < len(j.matches) {
			id := j.matches[j.matchIdx]
			j.matchIdx++
			inner, visible, err := j.Inner.FetchRow(id, j.InnerReads)
			if err != nil {
				return nil, false, err
			}
			if !visible {
				ChargeTuples(j.Ctx, Card{In: 1}, 0, 0)
				continue
			}
			if j.out == nil {
				j.out = make(value.Row, 0, len(j.outerRow)+len(inner))
			}
			j.out = append(j.out[:0], j.outerRow...)
			j.out = append(j.out, inner...)
			if chargeCandidate(j.Ctx, j.Residual, j.resNodes, j.out, len(j.out)*8) {
				return j.out, true, nil
			}
			continue
		}
		row, ok, err := j.Outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if row[j.OuterKey].IsNull() {
			// Same NULL-key semantics as the hash join: an equality on a
			// NULL outer key matches nothing.
			continue
		}
		j.outerRow = row.Clone()
		j.matches = j.Index.Lookup(row[j.OuterKey], &j.it, j.matches)
		j.matchIdx = 0
	}
}

// Close implements Operator.
func (j *IndexJoin) Close() error { return j.Outer.Close() }
