package exec

import "sync/atomic"

// Sink is the charge-sink stand-in: the interface the shared charge
// functions issue their modelled charges into.
type Sink interface {
	Tuples(n float64)
	Evals(n float64, nodes int)
}

// Card mirrors the cardinality record.
type Card struct{ In float64 }

// ChargeFilter is a shared charge function: what it does is learned from
// its body, not from its name.
func ChargeFilter(s Sink, c Card, nodes int) { s.Evals(c.In, nodes) }

// ChargeNothing is named like a charge function and charges nothing.
func ChargeNothing(c Card) {}

// filterCharged charges per row through a charge function: clean.
func filterCharged(s Sink, rows []Row) int {
	n := 0
	for _, r := range rows {
		ChargeFilter(s, Card{In: 1}, 3)
		n += r[0]
	}
	return n
}

// filterMisnamed leans on a function that only looks like a charge.
func filterMisnamed(rows []Row) int {
	n := 0
	for _, r := range rows {
		ChargeNothing(Card{In: 1})
		n += r[0]
	}
	return n
}

// publishAtomic's only "charge" is a store into a sync/atomic value: Store
// on atomic.Uint64 is not the hierarchy's Store.
func publishAtomic(last *atomic.Uint64, rows []Row) {
	for _, r := range rows {
		last.Store(uint64(r[0]))
	}
}
