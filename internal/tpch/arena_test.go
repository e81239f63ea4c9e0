package tpch

import (
	"fmt"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
)

// TestArenaPerStatement pins the simulated address space a statement uses.
// A worker's arena is never freed and a worker panics when it runs out, so
// what a statement reserves — vector payloads, hash tables, sort buffers —
// times the statement rate is how long a server lasts. Over the benchmark's
// analytic cycle (Q6×3, Q14, Q3×2, Q5×2, Q1×2; PostgreSQL profile, warm), the
// mean per statement must stay at or under 52 008 bytes at 10MB and 54 465
// at 100MB (Q6 57 296 / 57 296, Q14 36 928 / 36 928, Q3 69 840 / 75 504, Q5
// 53 024 / 59 664, Q1 32 768 / 32 752). The limits only ever go down: they
// were 433 760 / 300 230 before every operator of these plans ran on
// vectors, the means 178 164 / 179 803 before a column that one loop reads
// stopped drawing a vector address, and 66 753 / 68 392 before Q1 and Q5,
// grouping by coded columns, took a code-indexed table of a few lines in
// place of a 32 KiB page-aligned hash region. The budget holds because a vector
// draws its payload address only when a value is stored into it — a column
// that a single loop reads goes from the row into a register (vec.ColState)
// — expression temporaries are as wide as the batch they are evaluated over,
// an aggregate's output batch is as wide as its groups, and a sort's
// key-pack area as wide as one batch and its output batch as wide as its
// rows.
func TestArenaPerStatement(t *testing.T) {
	cycle := []struct{ id, times int }{{6, 3}, {14, 1}, {3, 2}, {5, 2}, {1, 2}}
	for _, c := range []struct {
		class SizeClass
		limit uint64
	}{{Size10MB, 52008}, {Size100MB, 54465}} {
		if c.class == Size100MB && testing.Short() {
			continue
		}
		m := cpusim.NewMachine(cpusim.IntelI7_4790())
		e := engine.New(engine.PostgreSQL, m, engine.SettingBaseline)
		Setup(e, c.class)
		var total, stmts uint64
		for pass := 0; pass < 2; pass++ { // warm, then measure
			total, stmts = 0, 0
			for _, s := range cycle {
				q, err := SQLByID(s.id)
				if err != nil {
					t.Fatal(err)
				}
				before := e.Ctx.Arena.Used()
				planAndDrain(t, e, fmt.Sprintf("Q%d", s.id), q.Text)
				used := e.Ctx.Arena.Used() - before
				t.Logf("%s Q%d: %d bytes", c.class, s.id, used)
				total += used * uint64(s.times)
				stmts += uint64(s.times)
			}
		}
		if mean := total / stmts; mean > c.limit {
			t.Errorf("%s: %d bytes of arena per statement over the analytic cycle, at most %d before", c.class, mean, c.limit)
		} else {
			t.Logf("%s: %d bytes per statement (limit %d)", c.class, mean, c.limit)
		}
	}
}
