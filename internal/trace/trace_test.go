package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/memsim"
	"energydb/internal/tpch"
)

// driveMixed issues one of every access shape.
func driveMixed(m *cpusim.Machine) {
	h := m.Hier
	h.Load(0x1000, true)
	h.Load(0x2000, false)
	h.Store(0x3000)
	h.LoadRepeat(0x4000, 10)
	h.StoreRepeat(0x5000, 6)
	h.Exec(7, memsim.InstrAdd)
	h.Exec(3, memsim.InstrNop)
	h.Exec(9, memsim.InstrOther)
}

func TestCaptureReplayReproducesCounters(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	tr := Capture(m, func() { driveMixed(m) })
	original := m.Hier.Counters()

	m2 := cpusim.NewMachine(cpusim.IntelI7_4790())
	Replay(tr, m2.Hier)
	replayed := m2.Hier.Counters()
	if original != replayed {
		t.Fatalf("replay diverged:\n  orig:   %+v\n  replay: %+v", original, replayed)
	}
}

func TestCaptureStopsAfterReturn(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	tr := Capture(m, func() { m.Hier.Load(0x40, false) })
	n := tr.Len()
	m.Hier.Load(0x80, false) // outside the capture window
	if tr.Len() != n {
		t.Fatal("recorder still active after Capture returned")
	}
}

// TestNestedCapture: a capture inside a capture records its own window, and
// the outer one misses nothing — neither the inner window nor what follows it.
func TestNestedCapture(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	var inner *Trace
	outer := Capture(m, func() {
		m.Hier.Load(0x40, false)
		inner = Capture(m, func() { driveMixed(m) })
		m.Hier.Store(0x80)
	})
	m2 := cpusim.NewMachine(cpusim.IntelI7_4790())
	want := Capture(m2, func() { driveMixed(m2) })
	if !reflect.DeepEqual(inner.Events, want.Events) {
		t.Fatalf("inner capture recorded %d events, want the %d of its window", inner.Len(), want.Len())
	}
	if got := outer.Len(); got != 1+want.Len()+1 {
		t.Fatalf("outer capture recorded %d events, want %d", got, 1+want.Len()+1)
	}
	if last := outer.Events[outer.Len()-1]; last.Kind != memsim.AccessStore || last.Addr != 0x80 {
		t.Fatalf("outer capture ends with %+v, want the store after the inner capture", last)
	}
	if m.Hier.Recorder() != nil {
		t.Fatal("a recorder is left installed after the outermost capture")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	tr := Capture(m, func() { driveMixed(m) })
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.Ops() != tr.Ops() {
		t.Fatalf("round trip lost events: %d/%d vs %d/%d",
			got.Len(), got.Ops(), tr.Len(), tr.Ops())
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := (&Trace{}).Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("empty trace should load: %v", err)
	}
	// Corrupt the magic.
	garbage := filepath.Join(t.TempDir(), "garbage")
	if err := writeFile(garbage, []byte("notatrace...")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(garbage); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// TestReplayOnDifferentArchitecture is the point of the package: the same
// captured query stream produces architecture-dependent stall/energy when
// replayed on a machine with a smaller L1D.
func TestReplayOnDifferentArchitecture(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(engine.SQLite, m, engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	q, err := tpch.SQLByID(6)
	if err != nil {
		t.Fatal(err)
	}
	op, err := tpch.Warm(e, plan.Builder(q.Text))
	if err != nil {
		t.Fatal(err)
	}
	tr := Capture(m, func() {
		if _, err := e.Run(op); err != nil {
			t.Error(err)
		}
	})
	if tr.Len() == 0 {
		t.Fatal("captured nothing")
	}

	missRate := func(l1dBytes int) float64 {
		prof := cpusim.IntelI7_4790()
		prof.Mem.L1D.SizeBytes = l1dBytes
		m := cpusim.NewMachine(prof)
		Replay(tr, m.Hier)
		return m.Hier.Counters().L1DMissRate()
	}
	small := missRate(8 << 10)
	big := missRate(128 << 10)
	if small <= big {
		t.Fatalf("8KB L1D miss rate %.4f should exceed 128KB's %.4f", small, big)
	}
}
