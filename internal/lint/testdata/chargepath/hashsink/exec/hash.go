// Package exec stands for the executor's hash structures. It has a package
// of its own so its Sink stand-in can carry the load at a data-dependent
// address that the first one lacks: a loop whose only charge is Sink.Random,
// direct or through a charge function, is charged.
package exec

// Sink is the charge-sink stand-in, reduced to its data-dependent load.
type Sink interface {
	Random(addr uint64, n, set float64, dependent bool)
}

// Row mirrors the executor's tuple.
type Row []int

// Card mirrors the cardinality record.
type Card struct{ In float64 }

// ChargeChainHop is a shared charge function that charges only through
// Random.
func ChargeChainHop(s Sink, c Card, hop uint64, set float64) { s.Random(hop, c.In, set, true) }

// buildCharged loads each build row's bucket entry through Random: clean.
func buildCharged(s Sink, rows []Row) {
	for i := range rows {
		s.Random(uint64(i)*16, 1, 4096, true)
	}
}

// probeCharged charges each match's chain hop through the charge function:
// clean.
func probeCharged(s Sink, matches []Row) int {
	n := 0
	for i, r := range matches {
		ChargeChainHop(s, Card{In: 1}, uint64(i)*16, 4096)
		n += r[0]
	}
	return n
}
