package tcm

import (
	"testing"

	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/memsim"
	"energydb/internal/rapl"
	"energydb/internal/tpch"
)

func TestPeakSavingMatchesSection43(t *testing.T) {
	saving, perf := PeakSaving(150)
	// Paper: "the energy cost of B_DTCM_array can reduce by 10% with no
	// performance loss".
	if saving < 0.07 || saving > 0.13 {
		t.Fatalf("peak saving = %.1f%%, want ~10%%", saving*100)
	}
	if perf < -0.005 || perf > 0.005 {
		t.Fatalf("perf delta = %.2f%%, want ~0 (DTCM is as fast as L1D)", perf*100)
	}
}

func TestDTCMAllocator(t *testing.T) {
	a := NewAllocator(DTCMBase, 1024)
	addr, ok := a.Alloc(100)
	if !ok || addr != DTCMBase {
		t.Fatalf("first alloc = %#x, ok=%v", addr, ok)
	}
	addr2, ok := a.Alloc(64)
	if !ok || addr2%memsim.LineSize != 0 {
		t.Fatalf("second alloc %#x not aligned", addr2)
	}
	if _, ok := a.Alloc(2048); ok {
		t.Fatal("over-budget alloc must fail")
	}
}

func TestNewMachineInstallsDTCM(t *testing.T) {
	m := NewMachine()
	if lvl := m.Hier.Load(DTCMBase+64, false); lvl != memsim.LevelTCM {
		t.Fatalf("DTCM load level = %v", lvl)
	}
	if lvl := m.Hier.Load(1<<30, false); lvl == memsim.LevelTCM {
		t.Fatal("non-DTCM address mapped to TCM")
	}
}

func TestOptimizeSQLiteRequiresSQLiteProfile(t *testing.T) {
	m := NewMachine()
	e := engine.New(engine.PostgreSQL, m, engine.SettingSmall)
	if _, err := OptimizeSQLite(e, nil); err == nil {
		t.Fatal("expected error for non-SQLite engine")
	}
}

func TestOptimizeSQLitePlacesAllThreeBudgets(t *testing.T) {
	m := NewMachine()
	e := engine.New(engine.SQLite, m, engine.SettingSmall)
	tpch.Setup(e, tpch.Size10MB)
	cd, err := OptimizeSQLite(e, []string{"lineitem", "orders", "customer"})
	if err != nil {
		t.Fatal(err)
	}
	if cd.BufferFrames == 0 {
		t.Error("no buffer frames placed in DTCM")
	}
	if cd.SpecialBytes == 0 {
		t.Error("special variables not placed in DTCM")
	}
	if cd.BTreeNodes == 0 {
		t.Error("no B-tree nodes placed in DTCM")
	}
	// Budgets must respect the 32KB window.
	if cd.SpecialBytes > SpecialBudget {
		t.Errorf("special bytes %d exceed budget", cd.SpecialBytes)
	}
}

// TestCoDesignSavesEnergyWithoutSlowdown is the Figure 13 regime check: the
// optimized SQLite must save energy on TPC-H queries with a non-negative
// performance delta.
func TestCoDesignSavesEnergyWithoutSlowdown(t *testing.T) {
	run := func(optimize bool) (joules, seconds float64) {
		m := NewMachine()
		meter := rapl.NewPowerMeter(m, 5, 0)
		e := engine.New(engine.SQLite, m, engine.SettingSmall)
		e.Knobs.DisableVectorExec = true // Figure 13's row executor
		tpch.Setup(e, tpch.Size10MB)
		if optimize {
			if _, err := OptimizeSQLite(e, []string{"lineitem", "orders", "customer"}); err != nil {
				t.Fatal(err)
			}
		}
		q, err := tpch.SQLByID(6)
		if err != nil {
			t.Fatal(err)
		}
		op, err := tpch.Warm(e, plan.Builder(q.Text))
		if err != nil {
			t.Fatal(err)
		}
		return meter.MeasureSession(func() {
			if _, err := e.Run(op); err != nil {
				t.Fatal(err)
			}
		})
	}
	e0, t0 := run(false)
	e1, t1 := run(true)
	saving := 1 - e1/e0
	if saving < 0.01 || saving > 0.12 {
		t.Fatalf("Q6 energy saving = %.2f%%, want the paper's few-percent regime", saving*100)
	}
	if t1 > t0*1.001 {
		t.Fatalf("optimized run slower: %.6fs vs %.6fs", t1, t0)
	}
}
