package engine

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
)

// statsSampleCap bounds the uniform row sample kept per table. Selectivity
// estimates carry ~sqrt(expected hits) sampling noise, and every downstream
// operator's energy estimate scales with the cardinality built on them — at
// 128 rows, a 1.3% joint predicate expects fewer than 2 hits and the whole
// plan's prediction swings 2x on one row. 2048 keeps the ANALYZE pass cheap
// (it walks raw rows Go-side, unsimulated), cuts the noise 4x, and makes
// small dimension tables (part, supplier, customer at this scale) exact.
const statsSampleCap = 2048

// statsSketchK is the k-minimum-values sketch size for distinct counting:
// exact below k, ~6% relative error above it — plenty for selectivity and
// join fan-out estimates.
const statsSketchK = 1024

// analyzeScaleFactor is the share of the rows the last ANALYZE saw that may
// be inserted, updated or deleted before the table is analyzed again
// (PostgreSQL's autovacuum_analyze_scale_factor).
const analyzeScaleFactor = 0.1

// Stats returns optimizer statistics for a table, computing them on first
// use and caching them on the shared table store. The ANALYZE pass walks raw
// rows on the Go side (no simulated accesses), so collecting statistics
// never pollutes a measured statement. The cache lasts until the rows
// written since it was filled (storage.TableData.Changes) pass
// analyzeScaleFactor of the rows it was filled from; it is guarded by its own
// mutex so concurrent workers planning at once race neither each other nor
// the cache.
func (e *Engine) Stats(t *Table) *catalog.TableStats {
	st, ok := e.shared.tables[t.Name]
	if !ok {
		// A table not in the store (unit-test constructions): compute
		// uncached.
		return analyze(t.File.Data(), t.Schema())
	}
	st.statsMu.Lock()
	defer st.statsMu.Unlock()
	changes := st.data.Changes()
	if st.stats == nil || float64(changes) > analyzeScaleFactor*float64(st.stats.RowCount) {
		st.stats = analyze(st.data, st.schema)
		st.data.Analyzed(changes)
		st.analyzes.Add(1)
	}
	return st.stats
}

// analyze computes table statistics in one raw pass: row count, per-column
// min/max and distinct sketches, and a uniform row sample.
func analyze(data *storage.TableData, schema *catalog.Schema) *catalog.TableStats {
	ncols := len(schema.Columns)
	sketches := make([]kmvSketch, ncols)
	for i := range sketches {
		sketches[i] = newKMV(statsSketchK)
	}
	stats := &catalog.TableStats{Cols: make([]catalog.ColStats, ncols)}
	cols := stats.Cols
	for i := range cols {
		cols[i].Min = value.Null()
		cols[i].Max = value.Null()
	}
	count := 0
	data.ForEachRaw(func(id int, row value.Row) { count++ })
	stride := 1
	if count > statsSampleCap {
		stride = (count + statsSampleCap - 1) / statsSampleCap
	}
	data.ForEachRaw(func(id int, row value.Row) {
		stats.RowCount++
		if id%stride == 0 {
			stats.Sample = append(stats.Sample, row) // a version's payload is immutable
		}
		for i := 0; i < ncols && i < len(row); i++ {
			v := row[i]
			if v.IsNull() {
				continue
			}
			if cols[i].Min.IsNull() || value.Compare(v, cols[i].Min) < 0 {
				cols[i].Min = v
			}
			if cols[i].Max.IsNull() || value.Compare(v, cols[i].Max) > 0 {
				cols[i].Max = v
			}
			sketches[i].add(v.Hash())
		}
	})
	for i := range cols {
		cols[i].Distinct = sketches[i].estimate()
	}
	return stats
}

// kmvSketch estimates a column's distinct count by tracking the k smallest
// distinct 64-bit value hashes: exact while fewer than k distinct hashes
// were seen, else distinct ≈ (k-1)·2^64/kthMin. The tracked hashes sit in a
// max-heap, so the kth minimum is its root and replacing it costs log k.
type kmvSketch struct {
	k    int
	set  map[uint64]struct{}
	mins []uint64 // binary max-heap of the hashes in set
}

func newKMV(k int) kmvSketch {
	return kmvSketch{k: k, set: make(map[uint64]struct{})}
}

func (s *kmvSketch) add(h uint64) {
	// Once the heap is full, a hash at or above its root can change
	// nothing: every tracked hash is at most the root. Most hashes of a
	// long column stop here, before the map lookup.
	m := s.mins
	if len(m) == s.k && h >= m[0] {
		return
	}
	if _, ok := s.set[h]; ok {
		return
	}
	if len(m) < s.k {
		// Sift the new hash up from the end.
		i := len(m)
		m = append(m, h)
		for p := (i - 1) / 2; i > 0 && m[p] < h; i, p = p, (p-1)/2 {
			m[i] = m[p]
		}
		m[i] = h
		s.mins = m
		s.set[h] = struct{}{}
		return
	}
	// Replace the root and sift the new hash down.
	delete(s.set, m[0])
	s.set[h] = struct{}{}
	i := 0
	for {
		c := 2*i + 1
		if c+1 < len(m) && m[c+1] > m[c] {
			c++
		}
		if c >= len(m) || m[c] <= h {
			break
		}
		m[i] = m[c]
		i = c
	}
	m[i] = h
}

func (s *kmvSketch) estimate() int {
	if len(s.mins) < s.k {
		return len(s.mins)
	}
	// kthMin as a fraction of the hash space.
	frac := float64(s.mins[0]) / float64(^uint64(0))
	if frac <= 0 {
		return len(s.mins)
	}
	return int(float64(s.k-1) / frac)
}
