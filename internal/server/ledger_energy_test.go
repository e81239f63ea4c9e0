package server

import (
	"testing"

	"energydb/internal/core"
)

// TestAddEnergyDoesNotCountQuery pins the ledger's side of the retire
// contract: a failed statement's measured joules enter the ledger through
// AddEnergy without bumping Queries, so error paths conserve energy while
// the wire-visible query count still means "statements that succeeded".
func TestAddEnergyDoesNotCountQuery(t *testing.T) {
	var l Ledger
	b := core.Breakdown{EActive: 2.5, EBusy: 3.0, EBackground: 0.5, Seconds: 0.25}
	b.Joules[core.CompL1D] = 1.25

	l.AddEnergy(b)
	got := l.Totals()
	if got.Queries != 0 {
		t.Fatalf("AddEnergy bumped Queries to %d; failed statements must not count", got.Queries)
	}
	if got.EActive != 2.5 || got.Seconds != 0.25 || got.Joules[core.CompL1D] != 1.25 {
		t.Fatalf("AddEnergy lost energy: %+v", got)
	}

	// A later successful statement still counts exactly once and its
	// energy stacks on top of the failed one's.
	l.Add(b)
	got = l.Totals()
	if got.Queries != 1 {
		t.Fatalf("Add after AddEnergy: Queries = %d, want 1", got.Queries)
	}
	if got.EActive != 5.0 {
		t.Fatalf("energy did not accumulate: EActive = %v, want 5.0", got.EActive)
	}
}
