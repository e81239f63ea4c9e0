package server

import (
	"errors"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/obs"
	"energydb/internal/rapl"
)

// ErrServerClosed is returned for work submitted after shutdown.
var ErrServerClosed = errors.New("server: closed")

// worker is one execution lane: a private simulated machine (a NewLike clone
// of the calibrated primary), its own RAPL meter and profiler, per-worker
// engine views over the shared table stores, and one goroutine (loop) that
// owns all of it and runs the jobs it reads from jobs. Because the machine,
// meter and engines are touched only from that goroutine, statement counter
// deltas advance in isolation and per-statement attribution stays exact
// without any machine-level locking.
//
// The lane needs no queue of its own. A session's connection goroutine
// blocks in submit until its job has run, so a session never has a second
// job waiting; the submitters blocked on the unbuffered send are the queue,
// and Go serves blocked senders in the order they arrived. A session
// streaming statements back to back therefore waits behind every session
// that arrived before its next statement — none of them can be starved.
type worker struct {
	id    int
	jobs  chan func()   // unbuffered: a send hands the job to loop
	quit  chan struct{} // closed by close
	idle  chan struct{} // closed when loop exits
	m     *cpusim.Machine
	meter *rapl.Meter
	prof  *core.Profiler

	// engines caches this worker's views of the shared stores, keyed like
	// the stores themselves. Touched only on the worker goroutine.
	engines map[engineKey]*engine.Engine

	// gov is the optional per-worker stall-aware DVFS governor
	// (Config.Governor). It reprograms this worker's machine, so like the
	// machine it is touched only on the worker goroutine — ticked once per
	// retired statement, treating the statement as the governor's window.
	gov *cpusim.StallAwareGovernor

	// mPState / mTransitions publish the governor's state to the metrics
	// registry (set by newMetrics). Updated on the worker goroutine; the
	// obs cells are themselves goroutine-safe for scrapes.
	mPState      *obs.Gauge
	mTransitions *obs.Counter
}

// newWorkers clones the calibrated primary machine n times and starts each
// clone's goroutine. Each worker's meter gets a distinct deterministic noise
// seed so concurrent measurements do not share an error stream. With
// governor set, each worker also gets a stall-aware DVFS governor over its
// machine.
func newWorkers(n int, primary *cpusim.Machine, cal *core.Calibration, seed int64, noise float64, governor bool) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		m := primary.NewLike()
		meter := rapl.NewMeter(m, seed+int64(i)+1, noise)
		w := &worker{
			id:      i,
			jobs:    make(chan func()),
			quit:    make(chan struct{}),
			idle:    make(chan struct{}),
			m:       m,
			meter:   meter,
			prof:    core.NewProfiler(m, meter, cal),
			engines: make(map[engineKey]*engine.Engine),
		}
		if governor {
			w.gov = cpusim.NewStallAwareGovernor(m)
		}
		go w.loop()
		ws[i] = w
	}
	return ws
}

// submit runs fn on the worker goroutine and returns once it has run, or
// returns ErrServerClosed without running it if the worker is closing.
func (w *worker) submit(fn func()) error {
	done := make(chan struct{})
	select {
	case w.jobs <- func() { fn(); close(done) }:
	case <-w.quit:
		return ErrServerClosed
	}
	<-done
	return nil
}

// loop runs jobs one at a time until close.
func (w *worker) loop() {
	defer close(w.idle)
	for {
		select {
		case <-w.quit:
			return
		case fn := <-w.jobs:
			fn()
		}
	}
}

// close stops the worker and returns once the job it was running, if any,
// has finished. The send in submit is unbuffered, so no job is left behind:
// every later submit sees quit and fails.
func (w *worker) close() {
	close(w.quit)
	<-w.idle
}

// tickGovernor runs the DVFS policy over the window since the last retired
// statement and publishes the new P-state. Must run on the worker goroutine.
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
		// before was read above in this same call; Transitions only grows
		// between the two reads (the governor is worker-goroutine-owned).
		w.mTransitions.Add(float64(w.gov.Transitions - before)) //lint:monotonic
	}
}

// engine returns this worker's view of a shared store, creating it on first
// use. Must run on the worker goroutine.
func (w *worker) engine(key engineKey, sh *engine.Shared) *engine.Engine {
	e, ok := w.engines[key]
	if !ok {
		e = sh.View(w.m)
		w.engines[key] = e
	}
	return e
}
