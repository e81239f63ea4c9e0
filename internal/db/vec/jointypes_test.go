package vec

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// TestHashJoinMatchesIntAndFloatKeys joins ta(i INT) with tb(f FLOAT), each
// holding 0..49, on i = f. value.Compare finds 7 = 7.0, so every strategy
// must count 50 pairs: the hash joins key an integral FLOAT as the INT equal
// to it (exec.JoinKey), as the index joins' B-tree compares it. Both
// profiles, row and vector, hash and index.
func TestHashJoinMatchesIntAndFloatKeys(t *testing.T) {
	for _, kind := range []engine.Kind{engine.PostgreSQL, engine.SQLite} {
		e := engine.New(kind, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
		ta := e.CreateTable("ta", catalog.NewSchema(catalog.Column{Name: "i", Type: value.TypeInt}))
		tb := e.CreateTable("tb", catalog.NewSchema(catalog.Column{Name: "f", Type: value.TypeFloat}))
		for i := 0; i < 50; i++ {
			e.Insert(ta, value.Row{value.Int(int64(i))})
			e.Insert(tb, value.Row{value.Float(float64(i))})
		}
		idx := e.CreateIndex(tb, "f")
		ctx := e.Ctx
		joins := map[string]func() (int, error){
			"row hash": func() (int, error) {
				return exec.Drain(&exec.HashJoin{Ctx: ctx,
					Build: &exec.SeqScan{Ctx: ctx, File: tb.File}, Probe: &exec.SeqScan{Ctx: ctx, File: ta.File}})
			},
			"row index": func() (int, error) {
				return exec.Drain(&exec.IndexJoin{Ctx: ctx, Outer: &exec.SeqScan{Ctx: ctx, File: ta.File}, Inner: tb.File, Index: idx})
			},
			"vector hash": func() (int, error) {
				return exec.Drain(&RowSource{Child: &HashJoin{Ctx: ctx,
					Build: &Scan{Ctx: ctx, File: tb.File}, Probe: &Scan{Ctx: ctx, File: ta.File}}})
			},
			"vector index": func() (int, error) {
				return exec.Drain(&RowSource{Child: &IndexJoin{Ctx: ctx, Probe: &Scan{Ctx: ctx, File: ta.File}, Inner: tb.File, Index: idx}})
			},
		}
		for name, join := range joins {
			n, err := join()
			if err != nil {
				t.Fatalf("%s %s: %v", kind, name, err)
			}
			if n != 50 {
				t.Errorf("%s %s join of INT 0..49 with FLOAT 0..49 counts %d rows, want 50", kind, name, n)
			}
		}
	}
}
