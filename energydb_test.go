package energydb

import (
	"math"
	"testing"

	"energydb/internal/db/storage"
)

func newTestLab(t *testing.T) *Lab {
	t.Helper()
	lab, err := NewLab(LabConfig{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestLabCalibrationRecoversTable2(t *testing.T) {
	lab := newTestLab(t)
	d := lab.Calibration.DeltaE
	if math.Abs(d.L1D-1.30)/1.30 > 0.08 {
		t.Fatalf("ΔE_L1D = %.3f, want ~1.30", d.L1D)
	}
	if math.Abs(d.Mem-103.1)/103.1 > 0.10 {
		t.Fatalf("ΔE_mem = %.2f, want ~103.1", d.Mem)
	}
}

func TestLabVerifyAccuracy(t *testing.T) {
	lab := newTestLab(t)
	results := lab.Verify()
	if len(results) != 7 {
		t.Fatalf("verification rows = %d, want 7", len(results))
	}
	for _, v := range results {
		if v.Accuracy < 0.85 {
			t.Errorf("%s accuracy %.1f%% below the Table 3 regime", v.Name, v.Accuracy*100)
		}
	}
}

// TestHeadlineResult checks the paper's central claim end-to-end through
// the public API: for query workloads, E_L1D + E_Reg2L1D is 39%–67% of
// Active energy, with SQLite at the high end.
func TestHeadlineResult(t *testing.T) {
	lab := newTestLab(t)
	q, err := QueryByID(1)
	if err != nil {
		t.Fatal(err)
	}
	shares := map[EngineKind]float64{}
	for _, kind := range []EngineKind{PostgreSQL, SQLite, MySQL} {
		e := lab.NewEngine(kind, SettingBaseline, Size10MB)
		b, err := lab.ProfileQuery(e, q)
		if err != nil {
			t.Fatal(err)
		}
		shares[kind] = b.L1DShare()
	}
	for kind, s := range shares {
		if s < 0.30 || s > 0.72 {
			t.Errorf("%v L1D share = %.1f%%, outside the paper's 39–67%% band (±tolerance)", kind, s*100)
		}
	}
	if !(shares[SQLite] > shares[PostgreSQL] && shares[SQLite] > shares[MySQL]) {
		t.Errorf("SQLite should have the highest L1D share: %v", shares)
	}
}

// TestLabEngineRowMajor: an engine the lab loads lays every table out
// row-major, as the paper's engines do, even once its planner is let free.
func TestLabEngineRowMajor(t *testing.T) {
	e := newTestLab(t).NewEngine(PostgreSQL, SettingBaseline, Size10MB)
	e.Knobs.DisableVectorExec = false
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		if e.MustTable(name).File.Data().Layout() != storage.Rows {
			t.Errorf("%s is laid out in column runs", name)
		}
	}
}

func TestExperimentRegistryThroughFacade(t *testing.T) {
	if len(Experiments()) != 20 {
		t.Fatalf("experiments = %d, want 20", len(Experiments()))
	}
	exp, err := ExperimentByID("T1")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultExperimentOptions()
	o.Quick = true
	res, err := exp.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Text == "" || res.CSV == "" {
		t.Fatal("experiment produced no output")
	}
}

func TestDTCMFacade(t *testing.T) {
	saving, perf := DTCMPeakSaving(100)
	if saving < 0.05 || saving > 0.15 {
		t.Fatalf("peak saving = %.1f%%, want ~10%%", saving*100)
	}
	if math.Abs(perf) > 0.01 {
		t.Fatalf("peak perf delta = %v, want ~0", perf)
	}
	m := NewARMMachine()
	e := newARMSQLite(t, m)
	cd, err := OptimizeSQLiteDTCM(e, []string{"lineitem"})
	if err != nil {
		t.Fatal(err)
	}
	if cd.BufferFrames == 0 || cd.BTreeNodes == 0 {
		t.Fatalf("co-design placed nothing: %+v", cd)
	}
}

func newARMSQLite(t *testing.T, m *Machine) *Engine {
	t.Helper()
	lab := &Lab{Machine: m}
	return lab.NewEngine(SQLite, SettingSmall, Size10MB)
}

func TestProfileFunc(t *testing.T) {
	lab := newTestLab(t)
	b := lab.ProfileFunc("busy", func(m *Machine) {
		for _, w := range CPU2006Workloads() {
			if w.Name == "Gobmk" {
				w.Run(m, 0.01)
			}
		}
	})
	if b.EActive <= 0 {
		t.Fatalf("EActive = %v", b.EActive)
	}
}

func TestTraceFacade(t *testing.T) {
	lab := newTestLab(t)
	tr := CaptureTrace(lab.Machine, func() {
		lab.Machine.Hier.Load(0x40, false)
		lab.Machine.Hier.Store(0x80)
	})
	if tr.Len() != 2 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	other, err := NewLab(LabConfig{Scale: 0.02, Noise: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := other.Machine.Hier.Counters()
	ReplayTrace(tr, other.Machine)
	d := other.Machine.Hier.Counters().Sub(before)
	if d.Loads != 1 || d.Stores != 1 {
		t.Fatalf("replay delta = %+v", d)
	}
}
