package tpch

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
)

// readmeJoin is the README's wide-row join-plus-sort example
// (harness.ReadmeJoinQuery; harness imports this package).
const readmeJoin = `SELECT * FROM lineitem JOIN partsupp ON l_suppkey = ps_suppkey WHERE l_quantity < 2 ORDER BY ps_availqty DESC`

// TestRecordedCounters pins what the executors charge: the full PMU counter
// delta of planning and draining a fixed statement list, per engine profile
// and with the optimizer free or forced onto the row path, must equal the
// recording under testdata/counters field for field. The recording was taken
// before the charge sites moved into shared charge functions, so it is what
// proves that refactor — and any later one — left the simulated machine's
// work bit-identical. A plan change moves these numbers too; then the EXPLAIN
// goldens say so first.
func TestRecordedCounters(t *testing.T) {
	type config struct {
		kind    engine.Kind
		class   SizeClass
		rowOnly bool
		ids     []int // 0 is the README join
	}
	small := []int{1, 3, 6, 13, 18, 0}
	configs := []config{
		{engine.SQLite, Size10MB, false, small},
		{engine.SQLite, Size10MB, true, small},
		{engine.PostgreSQL, Size10MB, false, small},
		{engine.PostgreSQL, Size10MB, true, small},
	}
	if !testing.Short() {
		// At 100MB Q1 plans vector mode and Q18 vectorizes its sort.
		configs = append(configs, config{engine.PostgreSQL, Size100MB, false, []int{1, 18}})
	}
	for _, c := range configs {
		mode := "free"
		if c.rowOnly {
			mode = "row"
		}
		name := fmt.Sprintf("%s-%s-%s", c.kind, c.class, mode)
		t.Run(name, func(t *testing.T) {
			m := cpusim.NewMachine(cpusim.IntelI7_4790())
			e := engine.New(c.kind, m, engine.SettingBaseline)
			e.Knobs.DisableVectorExec = c.rowOnly
			Setup(e, c.class)
			var b strings.Builder
			for _, id := range c.ids {
				label, text := "readme-join", readmeJoin
				if id != 0 {
					q, err := SQLByID(id)
					if err != nil {
						t.Fatal(err)
					}
					label, text = fmt.Sprintf("q%d", id), q.Text
				}
				before := e.M.Hier.Counters()
				stmt, err := sql.Parse(text)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				p, err := plan.Prepare(e, stmt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				op, err := p.Build()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if _, err := exec.Drain(op); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fmt.Fprintf(&b, "%s %+v\n", label, e.M.Hier.Counters().Sub(before))
			}
			path := filepath.Join("testdata", "counters", name+".txt")
			if *updateExplain {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := strings.Split(b.String(), "\n")
			for i, w := range strings.Split(string(want), "\n") {
				if i >= len(got) || got[i] != w {
					g := ""
					if i < len(got) {
						g = got[i]
					}
					t.Errorf("counters moved:\n want %s\n  got %s", w, g)
				}
			}
		})
	}
}
