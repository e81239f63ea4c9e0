package ledger

// Ledger accumulates per-session energy; its presence arms the
// profileretire half of the analyzer.
type Ledger struct {
	total float64
}

// Add retires measured energy into the ledger.
func (l *Ledger) Add(j float64) { l.total += j }

// Breakdown is a measured energy split.
type Breakdown struct {
	Total float64
}

// meter measures a region.
type meter struct{}

// Profile measures the region's energy.
func (m *meter) Profile() Breakdown {
	_ = m
	return Breakdown{}
}

// measureAndDrop profiles but never retires the measurement: the session
// ledgers no longer sum to the server total.
func measureAndDrop(m *meter) float64 {
	b := m.Profile()
	return b.Total
}

// measureAndRetire is the accepted shape: the breakdown lands in a ledger.
func measureAndRetire(m *meter, l *Ledger) {
	b := m.Profile()
	l.Add(b.Total)
}

// measureForCaller returns the Breakdown: retirement is the caller's job.
func measureForCaller(m *meter) Breakdown {
	return m.Profile()
}

// tryMeter is a meter whose measurement can fail.
type tryMeter struct{}

// Profile measures the region's energy.
func (m *tryMeter) Profile() (Breakdown, error) { return Breakdown{}, nil }

// measureMulti binds the breakdown next to an error and then only reads a
// field of it: dropped on both paths.
func measureMulti(m *tryMeter) error {
	b, err := m.Profile()
	if err != nil {
		return err
	}
	_ = b.Total
	return nil
}

// measureMultiRetire is the accepted two-result shape.
func measureMultiRetire(m *tryMeter, l *Ledger) error {
	b, err := m.Profile()
	l.Add(b.Total)
	return err
}

// measureBare profiles as a bare statement: nothing holds the result.
func measureBare(m *meter) {
	m.Profile()
}

// measureBlank assigns the measurement to the blank identifier.
func measureBlank(m *meter) {
	_ = m.Profile()
}

// measureField reads one field straight off the call and drops the rest.
func measureField(m *meter) float64 {
	return m.Profile().Total
}

// AddTo retires the breakdown into a ledger.
func (b Breakdown) AddTo(l *Ledger) { l.Add(b.Total) }

// measureMethod is accepted: a method of the breakdown hands it on, bound
// to a variable or straight off the call.
func measureMethod(m *meter, l *Ledger) {
	b := m.Profile()
	b.AddTo(l)
	m.Profile().AddTo(l)
}
