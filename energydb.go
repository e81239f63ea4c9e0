// Package energydb is a reproduction of "Micro Analysis to Enable
// Energy-Efficient Database Systems" (Yang, Du, Du, Meng — EDBT 2020) as a
// Go library.
//
// It provides, on top of a cycle-approximate machine simulator calibrated
// to the paper's Intel i7-4790 measurements:
//
//   - the micro-analysis methodology of Section 2: micro-benchmarks that
//     isolate individual micro-operations, an energy-model solver that
//     recovers per-operation energies (ΔE_m), and verification;
//   - three instrumented database-engine profiles (PostgreSQL, SQLite,
//     MySQL) with a TPC-H workload, whose Active-energy breakdowns exhibit
//     the paper's headline result: L1D cache load/store is the energy
//     bottleneck (39%–67% of Active energy);
//   - the ARM1176JZF-S + DTCM proof-of-concept co-design of Section 4;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
//	lab, err := energydb.NewLab(energydb.LabConfig{})
//	if err != nil { ... }
//	eng := lab.NewEngine(energydb.SQLite, energydb.SettingBaseline, energydb.Size100MB)
//	q, _ := energydb.QueryByID(6) // TPC-H Q6 as SQL text, planned row-at-a-time
//	b, err := lab.ProfileQuery(eng, q)
//	fmt.Printf("L1D share: %.1f%%\n", b.L1DShare()*100)
//
// See the examples directory for runnable programs and the cmd directory
// for the experiment CLIs.
package energydb

import (
	"fmt"

	"energydb/internal/core"
	"energydb/internal/cpu2006"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/harness"
	"energydb/internal/memsim"
	"energydb/internal/mubench"
	"energydb/internal/rapl"
	"energydb/internal/tcm"
	"energydb/internal/tpch"
	"energydb/internal/trace"
)

// Machine-level types.
type (
	// Machine is a simulated CPU (hierarchy + P-states + energy).
	Machine = cpusim.Machine
	// Profile describes a machine model.
	Profile = cpusim.Profile
	// PState is an EIST operating point (8–36 on the Intel profile).
	PState = cpusim.PState
	// Counters is the PMU snapshot.
	Counters = memsim.Counters
	// Meter reads RAPL-style energy counters.
	Meter = rapl.Meter
	// PowerMeter is the external wall meter used on the ARM board.
	PowerMeter = rapl.PowerMeter
)

// Methodology types (the paper's contribution).
type (
	// Calibration holds solved ΔE_m values (Table 2).
	Calibration = core.Calibration
	// DeltaE is the per-micro-operation energy set.
	DeltaE = core.DeltaE
	// Breakdown is an Eq. 1 decomposition of a workload's energy.
	Breakdown = core.Breakdown
	// Component indexes breakdown components (E_L1D … E_other).
	Component = core.Component
	// VerifyResult is one Table 3 verification row.
	VerifyResult = core.VerifyResult
	// Profiler measures and breaks down workloads.
	Profiler = core.Profiler
)

// Breakdown components in figure order.
const (
	CompL1D     = core.CompL1D
	CompReg2L1D = core.CompReg2L1D
	CompL2      = core.CompL2
	CompL3      = core.CompL3
	CompMem     = core.CompMem
	CompPf      = core.CompPf
	CompStall   = core.CompStall
	CompOther   = core.CompOther
)

// Database types.
type (
	// Engine is a database instance (one of the three profiles).
	Engine = engine.Engine
	// EngineKind selects PostgreSQL, SQLite or MySQL.
	EngineKind = engine.Kind
	// Setting selects a Table 4 knob row.
	Setting = engine.Setting
	// Query is the SQL text of one of the 22 TPC-H queries.
	Query = tpch.SQLQuery
	// BasicOp is one of the 7 basic query operations.
	BasicOp = tpch.BasicOp
	// SizeClass is a dataset size class.
	SizeClass = tpch.SizeClass
)

// Engine profiles.
const (
	PostgreSQL = engine.PostgreSQL
	SQLite     = engine.SQLite
	MySQL      = engine.MySQL
)

// Knob settings (Table 4).
const (
	SettingSmall    = engine.SettingSmall
	SettingBaseline = engine.SettingBaseline
	SettingLarge    = engine.SettingLarge
)

// Size classes.
const (
	Size10MB  = tpch.Size10MB
	Size100MB = tpch.Size100MB
	Size500MB = tpch.Size500MB
	Size1GB   = tpch.Size1GB
)

// P-states the paper evaluates.
const (
	PState36 = cpusim.PState36
	PState24 = cpusim.PState24
	PState12 = cpusim.PState12
)

// Experiment harness types.
type (
	// Experiment regenerates one paper table or figure.
	Experiment = harness.Experiment
	// ExperimentOptions configures an experiment run.
	ExperimentOptions = harness.Options
	// ExperimentResult is a rendered experiment.
	ExperimentResult = harness.Result
)

// Queries returns the 22 TPC-H query texts.
func Queries() []Query { return tpch.SQLQueries() }

// QueryByID fetches one TPC-H query text (1–22).
func QueryByID(id int) (Query, error) { return tpch.SQLByID(id) }

// Builder returns the build function of a SQL query for Warm: each call plans
// the text on the engine and instantiates the plan.
func Builder(query string) func(*Engine) (exec.Operator, error) { return plan.Builder(query) }

// BasicOps returns the 7 basic query operations of Section 3.2, each as SQL
// text for Builder.
func BasicOps() []BasicOp { return tpch.BasicOps() }

// Warm is the first half of warm-then-measure for a Builder: it runs the plan
// once and returns a fresh build to measure.
func Warm(e *Engine, build func(*Engine) (exec.Operator, error)) (exec.Operator, error) {
	return tpch.Warm(e, build)
}

// Experiments returns the registry of all paper tables and figures.
func Experiments() []Experiment { return harness.Experiments() }

// ExperimentByID fetches an experiment (T1, T2, T3, T5, F5–F11, F13, X1–X5,
// X7–X9).
func ExperimentByID(id string) (Experiment, error) { return harness.ByID(id) }

// DefaultExperimentOptions returns the paper-shaped configuration.
func DefaultExperimentOptions() ExperimentOptions { return harness.DefaultOptions() }

// CPU2006Workloads returns the nine Figure 10 kernels.
func CPU2006Workloads() []cpu2006.Workload { return cpu2006.Workloads() }

// LabConfig configures a measurement lab.
type LabConfig struct {
	// PState fixes the operating point (default: P-state 36).
	PState PState
	// Seed drives deterministic measurement noise (default 42).
	Seed int64
	// Noise is the per-session relative measurement error (default 1%).
	// Set negative for a noise-free lab.
	Noise float64
	// Scale rescales micro-benchmark pass counts (default 0.2; smaller
	// is faster and slightly less accurate).
	Scale float64
}

// Lab is the Intel measurement stack of Section 2.6: an i7-4790 machine, a
// RAPL meter, a micro-benchmark runner and (after NewLab) a calibration.
type Lab struct {
	Machine     *Machine
	Meter       *Meter
	Calibration *Calibration

	runner *mubench.Runner
}

// NewLab builds the measurement stack and calibrates it (runs the MBS
// micro-benchmark set and solves every ΔE_m).
func NewLab(cfg LabConfig) (*Lab, error) {
	if cfg.PState == 0 {
		cfg.PState = PState36
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	switch {
	case cfg.Noise < 0:
		cfg.Noise = 0
	case cfg.Noise == 0:
		cfg.Noise = rapl.DefaultNoise
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.2
	}
	st, err := core.NewStack(cfg.PState, cfg.Seed, cfg.Noise, cfg.Scale, 0)
	if err != nil {
		return nil, err
	}
	return &Lab{Machine: st.M, Meter: st.Meter, Calibration: st.Cal, runner: st.Runner}, nil
}

// Verify runs the verification micro-benchmark set (Table 3) against the
// lab's calibration.
func (l *Lab) Verify() []VerifyResult { return l.Calibration.Verify(l.runner) }

// NewEngine creates a database engine on the lab's machine and loads the
// TPC-H dataset of the given class into it. Its planner is held to the row
// executor (Knobs.DisableVectorExec), as the paper's tuple-at-a-time engines
// run, and since the knob is set before the load its heaps are row-major, as
// theirs are. Clearing the knob later lets the planner choose vector
// operators; it does not give the tables column storage.
func (l *Lab) NewEngine(kind EngineKind, setting Setting, class SizeClass) *Engine {
	e := engine.New(kind, l.Machine, setting)
	e.Knobs.DisableVectorExec = true
	tpch.Setup(e, class)
	return e
}

// Profiler returns a workload profiler bound to the lab.
func (l *Lab) Profiler() *Profiler {
	return core.NewProfiler(l.Machine, l.Meter, l.Calibration)
}

// ProfileQuery plans one TPC-H query text on the engine, warms it and
// profiles a re-planned run, returning its Active-energy breakdown.
func (l *Lab) ProfileQuery(e *Engine, q Query) (Breakdown, error) {
	op, err := tpch.Warm(e, plan.Builder(q.Text))
	if err != nil {
		return Breakdown{}, err
	}
	var runErr error
	b := l.Profiler().Profile(fmt.Sprintf("Q%d", q.ID), func() { _, runErr = e.Run(op) })
	return b, runErr
}

// ProfileFunc profiles an arbitrary workload function on the lab machine.
func (l *Lab) ProfileFunc(name string, fn func(m *Machine)) Breakdown {
	return l.Profiler().Profile(name, func() { fn(l.Machine) })
}

// ARM proof-of-concept re-exports (Section 4).

// NewARMMachine builds the ARM1176JZF-S machine with its 32KB DTCM window.
func NewARMMachine() *Machine { return tcm.NewMachine() }

// OptimizeSQLiteDTCM applies the Section 4.2 co-design to a SQLite-profile
// engine: database buffer, VM special variables and B-tree top layers move
// into DTCM. tables names the queried tables sharing the B-tree budget.
func OptimizeSQLiteDTCM(e *Engine, tables []string) (*tcm.CoDesign, error) {
	return tcm.OptimizeSQLite(e, tables)
}

// DTCMPeakSaving measures the B_DTCM_array peak energy saving (Section 4.3;
// ~10% on this machine model). Pass 0 for the default run length.
func DTCMPeakSaving(passes int) (saving, perfDelta float64) {
	return tcm.PeakSaving(passes)
}

// NewPowerMeter attaches an external wall meter to a machine (the ARM board
// has no RAPL).
func NewPowerMeter(m *Machine, seed int64, noise float64) *PowerMeter {
	return rapl.NewPowerMeter(m, seed, noise)
}

// Trace is a captured access stream, replayable onto machines with
// different architectures (trace-driven design-space exploration; see the
// X5 experiment).
type Trace = trace.Trace

// CaptureTrace records every access fn drives through the machine.
func CaptureTrace(m *Machine, fn func()) *Trace { return trace.Capture(m, fn) }

// ReplayTrace drives a captured trace through another machine's hierarchy,
// reproducing the original access semantics on that architecture.
func ReplayTrace(t *Trace, m *Machine) { trace.Replay(t, m.Hier) }

// LoadTrace reads a trace file written by Trace.Save.
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }
