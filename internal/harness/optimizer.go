package harness

import (
	"fmt"
	"math"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/tpch"
)

// RunExtensionOptimizer (X6) validates the energy-aware logical-plan
// optimizer against the paper's measurement stack. For every TPC-H query
// text it compares the cost model's predicted E_active with the measured
// E_active of the optimizer's chosen plan (warm-buffer run under the Eq. 1
// profiler), checks that the plans preserve the paper's headline result
// (E_L1D+E_Reg2L1D dominates Active energy), and — for the queries whose
// SQL is an exact transcription of the hand-built plan — that the
// optimizer's plan does not cost more energy than the hand-built one.
// A final sweep over all three engine profiles checks the Figure 7 share
// ordering (SQLite > PostgreSQL > MySQL) survives optimizer-chosen plans.
func RunExtensionOptimizer(o Options) (Result, error) {
	o = o.effective()
	l, err := newLab(o, cpusim.PState36)
	if err != nil {
		return Result{}, err
	}
	prof := l.Profiler()
	e := l.setupEngine(engine.SQLite, o.Setting, o.Class)

	queries := sqlQueriesFor(o)
	header := []string{"Query", "pred (mJ)", "meas (mJ)", "err%", "L1D+St%", "hand (mJ)", "vs hand", "exact"}
	var rows [][]string
	within := 0
	var shareSum float64
	worstDelta, worstID := math.Inf(-1), 0
	for _, q := range queries {
		pred, b, err := profileSQLQuery(prof, e, q)
		if err != nil {
			return Result{}, fmt.Errorf("Q%d: %v", q.ID, err)
		}
		errPct := (pred/b.EActive - 1) * 100
		if math.Abs(errPct) <= 25 {
			within++
		}
		shareSum += b.L1DShare()
		handCell, deltaCell, exactCell := "-", "-", ""
		if q.Exact {
			exactCell = "yes"
			hand, err := tpch.QueryByID(q.ID)
			if err != nil {
				return Result{}, err
			}
			hb, err := profileQuery(prof, e, hand)
			if err != nil {
				return Result{}, fmt.Errorf("Q%d hand-built: %v", q.ID, err)
			}
			delta := (b.EActive/hb.EActive - 1) * 100
			if delta > worstDelta {
				worstDelta, worstID = delta, q.ID
			}
			handCell = fmt.Sprintf("%.3f", hb.EActive*1e3)
			deltaCell = fmt.Sprintf("%+.1f%%", delta)
		}
		rows = append(rows, []string{
			fmt.Sprintf("Q%d", q.ID),
			fmt.Sprintf("%.3f", pred*1e3),
			fmt.Sprintf("%.3f", b.EActive*1e3),
			fmt.Sprintf("%+.1f", errPct),
			fmt.Sprintf("%.1f", b.L1DShare()*100),
			handCell, deltaCell, exactCell,
		})
	}
	text, csv := table("Extension X6: energy-aware optimizer — predicted vs measured E_active (SQLite, warm buffers)", header, rows)
	text += fmt.Sprintf("\nprediction within +/-25%%: %d/%d queries\n", within, len(queries))
	if worstID != 0 {
		text += fmt.Sprintf("worst optimizer-vs-hand-built E_active delta (exact queries): %+.1f%% on Q%d\n", worstDelta, worstID)
	}
	text += fmt.Sprintf("avg L1D+Reg2L1D share of optimizer plans (SQLite): %.1f%%\n", shareSum/float64(len(queries))*100)

	// The Figure 7 cross-engine ordering, on optimizer-chosen plans: the
	// SQLite engine profile spends the largest E_L1D+E_Reg2L1D share,
	// PostgreSQL next, MySQL least.
	engText, err := optimizerEngineShares(o, queries)
	if err != nil {
		return Result{}, err
	}
	text += engText
	return Result{ID: "X6", Title: "Extension X6 (energy-aware optimizer)", Text: text, CSV: csv}, nil
}

// optimizerEngineShares profiles the optimizer's plans under each engine
// profile and renders the average L1D+Reg2L1D share per engine.
func optimizerEngineShares(o Options, queries []tpch.SQLQuery) (string, error) {
	shares := make(map[engine.Kind]float64)
	for _, kind := range engine.Kinds() {
		l, err := newLab(o, cpusim.PState36)
		if err != nil {
			return "", err
		}
		prof := l.Profiler()
		e := l.setupEngine(kind, o.Setting, o.Class)
		var sum float64
		for _, q := range queries {
			_, b, err := profileSQLQuery(prof, e, q)
			if err != nil {
				return "", fmt.Errorf("%s Q%d: %v", kind, q.ID, err)
			}
			sum += b.L1DShare()
		}
		shares[kind] = sum / float64(len(queries))
	}
	ordered := shares[engine.SQLite] > shares[engine.PostgreSQL] &&
		shares[engine.PostgreSQL] > shares[engine.MySQL]
	mark := "ok"
	if !ordered {
		mark = "VIOLATED"
	}
	return fmt.Sprintf("avg L1D+Reg2L1D share by engine: SQLite %.1f%% > PostgreSQL %.1f%% > MySQL %.1f%% (Figure 7 ordering %s)\n",
		shares[engine.SQLite]*100, shares[engine.PostgreSQL]*100, shares[engine.MySQL]*100, mark), nil
}

// sqlQueriesFor returns the SQL-text query sweep for the options, mirroring
// queriesFor's quick subset.
func sqlQueriesFor(o Options) []tpch.SQLQuery {
	qs := tpch.SQLQueries()
	if !o.Quick {
		return qs
	}
	var out []tpch.SQLQuery
	for _, q := range qs {
		switch q.ID {
		case 1, 3, 4, 6, 13:
			out = append(out, q)
		}
	}
	return out
}

// profileSQLQuery plans and runs the SQL text once to warm the buffer pool,
// then re-plans — so the cost model's residency estimates see the warm pool,
// matching what it is asked to predict — and profiles the re-planned run.
func profileSQLQuery(prof *core.Profiler, e *engine.Engine, q tpch.SQLQuery) (predEJ float64, b core.Breakdown, err error) {
	stmt, err := sql.Parse(q.Text)
	if err != nil {
		return 0, b, err
	}
	p, err := plan.Prepare(e, stmt)
	if err != nil {
		return 0, b, err
	}
	op, err := p.Build()
	if err != nil {
		return 0, b, err
	}
	if _, err := exec.Collect(op); err != nil {
		return 0, b, err
	}
	p, err = plan.Prepare(e, stmt)
	if err != nil {
		return 0, b, err
	}
	op, err = p.Build()
	if err != nil {
		return 0, b, err
	}
	var runErr error
	b = prof.Profile(fmt.Sprintf("Q%d-sql", q.ID), func() {
		_, runErr = exec.Collect(op)
	})
	return p.PredictedEJ(), b, runErr
}
