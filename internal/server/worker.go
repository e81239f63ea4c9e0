package server

import (
	"errors"
	"sync/atomic"
	"time"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/obs"
	"energydb/internal/rapl"
)

// ErrServerClosed is returned for work submitted after shutdown.
var ErrServerClosed = errors.New("server: closed")

// worker is one execution lane: a private simulated machine (a NewLike clone
// of the calibrated primary), its own RAPL meter and profiler, and per-worker
// engine views over the shared table stores. A job runs on the goroutine that
// submits it, holding the worker's lane, a one-slot channel. Because the
// machine, meter and engines are touched only while holding the lane,
// statement counter deltas advance in isolation and per-statement
// attribution stays exact without any machine-level locking; the channel
// operations that take and release the slot order one holder's memory
// accesses before the next one's.
//
// The lane needs no queue of its own. A session's connection goroutine
// holds or waits for the slot until its job has run, so a session never has
// a second job waiting; the submitters blocked on the full channel are the
// queue, Go serves blocked senders in the order they arrived, and a release
// hands the slot to the first of them before any newcomer. A session
// streaming statements back to back therefore waits behind every session
// that arrived before its next statement — none of them can be starved.
type worker struct {
	id     int
	lane   chan struct{} // capacity 1: holding its slot is holding the worker
	closed atomic.Bool   // set by close; a job that sees it does not run
	m      *cpusim.Machine
	meter  *rapl.Meter
	prof   *core.Profiler

	// engines caches this worker's views of the shared stores, keyed like
	// the stores themselves. Touched only holding the worker's lane.
	engines map[engineKey]*engine.Engine

	// gov is the optional per-worker stall-aware DVFS governor
	// (Config.Governor). It reprograms this worker's machine, so like the
	// machine it is touched only holding the worker's lane — ticked once per
	// retired statement, treating the statement as the governor's window.
	gov *cpusim.StallAwareGovernor

	// mPState / mTransitions publish the governor's state to the metrics
	// registry, and mLaneWait the time a job waits for the lane (set by
	// newMetrics). Updated holding the worker's lane; the obs cells are
	// themselves goroutine-safe for scrapes.
	mPState      *obs.Gauge
	mTransitions *obs.Counter
	mLaneWait    *obs.Histogram
}

// newWorkers clones the calibrated primary machine n times. Each worker's
// meter gets a distinct deterministic noise seed so concurrent measurements
// do not share an error stream. With governor set, each worker also gets a
// stall-aware DVFS governor over its machine.
func newWorkers(n int, primary *cpusim.Machine, cal *core.Calibration, seed int64, noise float64, governor bool) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		m := primary.NewLike()
		meter := rapl.NewMeter(m, seed+int64(i)+1, noise)
		w := &worker{
			id:      i,
			lane:    make(chan struct{}, 1),
			m:       m,
			meter:   meter,
			prof:    core.NewProfiler(m, meter, cal),
			engines: make(map[engineKey]*engine.Engine),
		}
		if governor {
			w.gov = cpusim.NewStallAwareGovernor(m)
		}
		ws[i] = w
	}
	return ws
}

// submit runs fn on the calling goroutine, holding the worker's lane, and
// returns once it has run, or returns ErrServerClosed without running it if
// the worker is closing.
func (w *worker) submit(fn func()) error {
	asked := time.Now()
	w.lane <- struct{}{}
	defer func() { <-w.lane }()
	if w.closed.Load() {
		return ErrServerClosed
	}
	if w.mLaneWait != nil {
		w.mLaneWait.Observe(time.Since(asked).Seconds())
	}
	fn()
	return nil
}

// close stops the worker and returns once the job holding the lane, if any,
// has finished. Submitters still waiting for the slot take it after close
// has set closed, so none of them runs its job.
func (w *worker) close() {
	w.closed.Store(true)
	w.lane <- struct{}{}
	<-w.lane
}

// tickGovernor runs the DVFS policy over the window since the last retired
// statement and publishes the new P-state. Must run holding the worker's lane.
func (w *worker) tickGovernor() {
	if w.gov == nil {
		return
	}
	before := w.gov.Transitions
	p, _ := w.gov.Tick()
	if w.mPState != nil {
		w.mPState.Set(float64(p))
	}
	if w.mTransitions != nil {
		w.mTransitions.Add(float64(w.gov.Transitions - before))
	}
}

// engine returns this worker's view of a shared store, creating it on first
// use. Must run holding the worker's lane.
func (w *worker) engine(key engineKey, sh *engine.Shared) *engine.Engine {
	e, ok := w.engines[key]
	if !ok {
		e = sh.View(w.m)
		w.engines[key] = e
	}
	return e
}
