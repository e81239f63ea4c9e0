package server

import (
	"sync"

	"energydb/internal/core"
)

// Ledger accumulates energy attribution for one accounting scope (a session
// or the whole server). Worker goroutines add breakdowns as statements retire;
// connection goroutines read totals when building responses, so the ledger
// is shared across goroutines and carries its own mutex.
//
// Attribution is exact, not amortized: each statement runs on a machine
// owned by exactly one worker, whose counters only advance while that
// statement runs, so the Eq. 1 delta snapshotted around a statement belongs
// entirely to the session that issued it. Every breakdown is added to one
// session ledger and to the server ledger; the session ledgers therefore
// partition the server total (Server.Totals) — the per-session EActive sums
// add up to it.
type Ledger struct {
	mu sync.Mutex
	t  LedgerTotals
}

// LedgerTotals is a ledger snapshot.
type LedgerTotals struct {
	// Queries is the number of statements retired.
	Queries uint64
	// EActive / EBusy / EBackground are summed measured energies (J).
	EActive     float64
	EBusy       float64
	EBackground float64
	// Seconds is the summed measured execution time.
	Seconds float64
	// Joules is the summed Eq. 1 component decomposition.
	Joules [core.NumComponents]float64
}

// Add retires one statement's breakdown into the ledger.
func (l *Ledger) Add(b core.Breakdown) { l.add(b, 1) }

// AddEnergy folds a breakdown's energy into the ledger without counting a
// retired statement. Error and timeout paths use it: the statement failed
// (Queries stays put, per the wire contract) but its measured joules were
// really spent, and they must still land somewhere or the session ledgers
// stop partitioning Server.Totals.
func (l *Ledger) AddEnergy(b core.Breakdown) { l.add(b, 0) }

func (l *Ledger) add(b core.Breakdown, queries uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t.Merge(LedgerTotals{Queries: queries, EActive: b.EActive, EBusy: b.EBusy,
		EBackground: b.EBackground, Seconds: b.Seconds, Joules: b.Joules})
}

// Totals returns a consistent snapshot.
func (l *Ledger) Totals() LedgerTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t
}

// Merge folds another snapshot into t: a breakdown into a ledger, or a
// session ledger into Server.SessionTotals.
func (t *LedgerTotals) Merge(o LedgerTotals) {
	t.Queries += o.Queries
	t.EActive += o.EActive
	t.EBusy += o.EBusy
	t.EBackground += o.EBackground
	t.Seconds += o.Seconds
	for i, j := range o.Joules {
		t.Joules[i] += j
	}
}

// L1DShare returns the ledger's cumulative headline metric: (E_L1D +
// E_Reg2L1D) / EActive, the paper's 39%–67% band for query workloads.
func (t LedgerTotals) L1DShare() float64 {
	if t.EActive <= 0 {
		return 0
	}
	return (t.Joules[core.CompL1D] + t.Joules[core.CompReg2L1D]) / t.EActive
}
