package tpch

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/memsim"
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
//
// Beside the statements, each configuration pins the load it ran them on:
// the counter delta of Setup and the shape of every index it built, so a
// change to how the B+trees are built or how the hierarchy is walked shows
// whether it moved the simulated stream, a split point or a node address.
// The knob is set before the load, so the row mode loads row-major heaps
// (testdata/counters/<engine>-<class>.load.txt) and the free mode column
// heaps (<engine>-<class>-free.load.txt).
func TestRecordedCounters(t *testing.T) {
	type config struct {
		kind    engine.Kind
		class   SizeClass
		rowOnly bool
		ids     []int // 0 is the README join
	}
	small := []int{1, 3, 6, 13, 18, 0, 14}
	configs := []config{
		{engine.SQLite, Size10MB, false, small},
		{engine.SQLite, Size10MB, true, small},
		{engine.PostgreSQL, Size10MB, false, small},
		{engine.PostgreSQL, Size10MB, true, small},
	}
	if !testing.Short() {
		// At 100MB Q1 plans vector mode and Q18 vectorizes its sort. Both
		// read lineitem through a vector scan, and each is recorded twice,
		// in this order on a fresh engine, so the second pass pins a warm
		// rescan. Like every batch scan, each pass walks front to back.
		configs = append(configs, config{engine.PostgreSQL, Size100MB, false, []int{1, 1, 18, 18}})
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
			before := e.M.Hier.Counters()
			Setup(e, c.class)
			load := fmt.Sprintf("%s-%s.load", c.kind, c.class)
			if !c.rowOnly {
				load = fmt.Sprintf("%s-%s-free.load", c.kind, c.class)
			}
			compareRecorded(t, load, loadRecord(t, e, before))
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
				planAndDrain(t, e, label, text)
				fmt.Fprintf(&b, "%s %+v\n", label, e.M.Hier.Counters().Sub(before))
			}
			compareRecorded(t, name, b.String())
		})
	}
}

// planAndDrain parses, plans, builds and drains one statement on e.
func planAndDrain(t *testing.T, e *engine.Engine, label, text string) {
	t.Helper()
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
}

// loadRecord renders what Setup did to the machine and what it built: the
// counter delta since before, then one line per index in table and column
// order.
func loadRecord(t *testing.T, e *engine.Engine, before memsim.Counters) string {
	var b strings.Builder
	fmt.Fprintf(&b, "load %+v\n", e.M.Hier.Counters().Sub(before))
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		tab, err := e.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]string, 0, len(tab.Indexes))
		for col := range tab.Indexes {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		for _, col := range cols {
			sh := tab.Indexes[col].Shape()
			fmt.Fprintf(&b, "%s.%s len=%d height=%d nodes=%d fnv=%016x\n", name, col, sh.Len, sh.Height, sh.Nodes, sh.Hash)
		}
	}
	return b.String()
}

// compareRecorded checks got line by line against testdata/counters/<name>.txt,
// or rewrites the file under -update.
func compareRecorded(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "counters", name+".txt")
	if *updateExplain {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines, wants := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(lines) || i < len(wants); i++ {
		g, w := "", ""
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(wants) {
			w = wants[i]
		}
		if g != w {
			t.Errorf("%s moved:\n want %s\n  got %s", name, w, g)
		}
	}
}
