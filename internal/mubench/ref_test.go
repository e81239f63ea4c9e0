package mubench

import (
	"energydb/internal/memsim"
)

// fullWalk is Runner.Run as it stood before passes were credited, kept
// verbatim as the differential oracle: every pass of every session goes
// through the hierarchy. The product must return the same Result and leave
// the machine with the same counters, energy, time and (up to memsim.State)
// caches.
func fullWalk(r *Runner, s Spec) Result {
	r.M.Hier.ResetCaches()
	r.M.Hier.SetPrefetchEnabled(false)
	return fullWalkMeasure(r, newWalker(r.M.Hier, s))
}

// fullWalkMeasure is the oracle for Runner.measure.
func fullWalkMeasure(r *Runner, w *walker) Result {
	s := w.s
	passes := s.Passes
	if r.Scale > 0 && r.Scale != 1 {
		passes = int(float64(passes) * r.Scale)
		if passes < 1 {
			passes = 1
		}
	}
	reps := r.Repetitions
	if reps < 1 {
		reps = 1
	}

	w.pass(true) // warmup: populate the target layer

	var busy, seconds float64
	var delta memsim.Counters
	for rep := 0; rep < reps; rep++ {
		startCtr := r.M.Hier.Counters()
		sess := r.Meter.Begin()
		for i := 0; i < passes; i++ {
			w.pass(true)
		}
		meas := sess.End()
		if rep == 0 {
			delta = r.M.Hier.Counters().Sub(startCtr)
		}
		switch s.Observe {
		case ObserveCore:
			busy += meas.Energy.Core
		case ObservePackage:
			busy += meas.Energy.Package
		default:
			busy += meas.Energy.Package + meas.Energy.DRAM
		}
		seconds += meas.Seconds
	}
	busy /= float64(reps)
	seconds /= float64(reps)
	var bg float64
	switch s.Observe {
	case ObserveCore:
		bg = r.Background.Core
	case ObservePackage:
		bg = r.Background.Package
	default:
		bg = r.Background.Package + r.Background.DRAM
	}

	desired := delta.Instructions() - delta.OtherOps
	bli := 0.0
	if n := delta.Instructions(); n > 0 {
		bli = float64(desired) / float64(n) * 100
	}
	return Result{
		Spec:     s,
		Counters: delta,
		EBusy:    busy,
		EActive:  busy - bg*seconds,
		Seconds:  seconds,
		BLI:      bli,
	}
}
