// Package retirepath exercises the energy-conservation analyzer: a
// profiled statement section must be retired into the ledgers on every
// path — success, error, and early return alike — or the measured
// joules vanish between the per-query and per-session views.
package retirepath

// Breakdown is the profiled energy result.
type Breakdown struct{ E float64 }

// Prof measures one section.
type Prof struct{}

func (p *Prof) Profile(name string, f func()) Breakdown {
	f()
	return Breakdown{}
}

// Ledger accumulates retired breakdowns.
type Ledger struct{}

func (l *Ledger) retire(b Breakdown)       {}
func (l *Ledger) retireEnergy(b Breakdown) {}

type session struct {
	prof   *Prof
	ledger *Ledger
}

// executeLeaky retires only the success path: the error return exits
// with the measured energy unaccounted.
func (s *session) executeLeaky(run func() error) error {
	var runErr error
	b := s.prof.Profile("execute", func() { runErr = run() })
	if runErr != nil {
		return runErr
	}
	s.ledger.retire(b)
	return nil
}

// executeBalanced accounts both paths: clean.
func (s *session) executeBalanced(run func() error) error {
	var runErr error
	b := s.prof.Profile("execute", func() { runErr = run() })
	if runErr != nil {
		s.ledger.retireEnergy(b)
		return runErr
	}
	s.ledger.retire(b)
	return nil
}

// Record is one profiled region as the statement pipeline hands it over.
type Record struct {
	Name string
	B    Breakdown
	OK   bool
}

// Pipe is the statement pipeline: it profiles, the session only receives.
type Pipe struct{}

func (p *Pipe) Exec(text string) ([]Record, error) { return nil, nil }

func (l *Ledger) retireRecord(r Record) {}

// serveLeaky books the records of statements that succeeded only: a failed
// write's energy-only record and its rollback record reach the error return
// unaccounted.
func (s *session) serveLeaky(pipe *Pipe, text string) error {
	recs, err := pipe.Exec(text)
	if err != nil {
		return err
	}
	for _, r := range recs {
		s.ledger.retireRecord(r)
	}
	return nil
}

// serveBalanced books every record before looking at the error: clean.
func (s *session) serveBalanced(pipe *Pipe, text string) error {
	recs, err := pipe.Exec(text)
	for _, r := range recs {
		s.ledger.retireRecord(r)
	}
	return err
}
