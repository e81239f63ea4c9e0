package server_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/stmt"
	"energydb/internal/db/value"
	"energydb/internal/rapl"
	"energydb/internal/server"
	"energydb/internal/server/client"
	"energydb/internal/tpch"
)

// TestSessionMatchesPipeline is the differential check behind "energyd and
// dbshell's local mode are two consumers of one pipeline": one script goes
// through a loopback session and through stmt.Session on a direct engine
// (what dbshell builds), and both must answer every statement alike —
// statement name, columns, rows, error text and class — and book the same
// number of retired statements.
//
// The planner prices scans against the view's buffer residency, so the
// worker's cold view and the warm direct engine may pick different plans for
// one statement (Q6: vector scan there, index scan here). That is why EXPLAIN
// and EXPLAIN ENERGY are compared by shape only, and float cells to 1e-9:
// sums taken in a different order differ in the last bits.
func TestSessionMatchesPipeline(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1})
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	st, err := core.NewStack(cpusim.PStateMax, 42, rapl.DefaultNoise, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.SQLite, st.M, engine.SettingBaseline)
	tpch.Setup(eng, tpch.Size10MB)
	retired := uint64(0) // OK records the local sink received in the current step
	local := &stmt.Session{Eng: eng, Prof: st.Profiler(), Retire: func(r stmt.Record) {
		if r.OK {
			retired++
		}
	}}

	errorsByClass := func() map[string]float64 {
		out := map[string]float64{}
		for _, f := range srv.Stats().Metrics.Families {
			if f.Name != "energyd_errors_total" {
				continue
			}
			for _, m := range f.Metrics {
				out[m.Labels[0].Value] = m.Value
			}
		}
		return out
	}

	const torn = "UPDATE nation SET n_nationkey = 99 WHERE n_nationkey = 4" // indexed column: fails mid-statement
	script := []string{
		`\q6`,
		"SELECT n_name FROM nation WHERE n_nationkey = 7",
		"SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
		"EXPLAIN SELECT n_name FROM nation WHERE n_nationkey = 7",
		"EXPLAIN ENERGY SELECT n_name FROM nation WHERE n_nationkey = 7",
		"INSERT INTO region VALUES (9, 'ATLANTIS')",
		"UPDATE region SET r_name = 'LEMURIA' WHERE r_regionkey = 9",
		"SELECT r_name FROM region WHERE r_regionkey = 9",
		"DELETE FROM region WHERE r_regionkey = 9",
		"",
		"SELEC nope",
		`\q99`,
		`\qx`,
		"SELECT x FROM missing_table",
		"EXPLAIN SELECT x FROM missing_table",
		torn,
		"COMMIT",
		"BEGIN",
		"BEGIN",
		"UPDATE nation SET n_name = 'DOOMED' WHERE n_nationkey = 4",
		"SELECT n_name FROM nation WHERE n_nationkey = 4",
		torn,
		"SELECT n_name FROM nation WHERE n_nationkey = 4",
		"BEGIN",
		"UPDATE nation SET n_name = 'KEPT' WHERE n_nationkey = 4",
		"COMMIT",
		"BEGIN",
		"DELETE FROM nation WHERE n_nationkey = 4",
		"ROLLBACK",
		"SELECT n_name FROM nation WHERE n_nationkey = 4",
		"ROLLBACK",
	}
	for i, text := range script {
		queries, classes := srv.Totals().Queries, errorsByClass()
		remote, rerr := conn.Query(text)

		var res stmt.Result
		retired = 0
		parsed, lerr := stmt.Parse(text)
		if lerr == nil {
			res, lerr = local.Exec(parsed)
		}
		if got := srv.Totals().Queries - queries; got != retired {
			t.Errorf("step %d %q: session retired %d statements, pipeline yielded %d OK records", i, text, got, retired)
		}

		if lerr != nil {
			var qe *client.QueryError
			var se *stmt.Error
			if !errors.As(rerr, &qe) || !errors.As(lerr, &se) {
				t.Fatalf("step %d %q: session error %v, pipeline error %v", i, text, rerr, lerr)
			}
			if qe.Msg != se.Error() {
				t.Errorf("step %d %q: session says %q, pipeline says %q", i, text, qe.Msg, se)
			}
			after := errorsByClass()
			if after[se.Class] != classes[se.Class]+1 {
				t.Errorf("step %d %q: pipeline class %q, session counted %v → %v", i, text, se.Class, classes, after)
			}
			continue
		}
		if rerr != nil {
			t.Fatalf("step %d %q: session failed (%v), pipeline did not", i, text, rerr)
		}
		if remote.Energy.Name != res.Name || strings.Join(remote.Cols, ",") != strings.Join(res.Cols, ",") {
			t.Errorf("step %d %q: session answered %s %v, pipeline %s %v",
				i, text, remote.Energy.Name, remote.Cols, res.Name, res.Cols)
		}
		if strings.HasPrefix(res.Name, "explain") {
			if len(remote.Rows) != len(res.Rows) {
				t.Errorf("step %d %q: session plan has %d lines, pipeline's %d", i, text, len(remote.Rows), len(res.Rows))
			}
		} else if !rowsClose(remote.Rows, res.Rows) {
			t.Errorf("step %d %q: session rows %v, pipeline rows %v", i, text, remote.Rows, res.Rows)
		}
	}
	if _, open := local.InTxn(); open {
		t.Error("pipeline left a transaction open")
	}
	if _, open := conn.InTxn(); open {
		t.Error("client believes a transaction is open")
	}
}

// rowsClose is rowsEqual with float cells compared to a relative 1e-9.
func rowsClose(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			y := b[i][j]
			if x.T == value.TypeFloat && y.T == value.TypeFloat {
				if math.Abs(x.F-y.F) > 1e-9*math.Max(math.Abs(x.F), 1) {
					return false
				}
			} else if !value.Equal(x, y) {
				return false
			}
		}
	}
	return true
}
