package plan

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/sql"
	"energydb/internal/tpch"
)

// BenchmarkPrepare is the planner's host cost: one op plans the 22 TPC-H
// texts, parsed beforehand, on the SQLite profile at 10MB — access paths,
// joins, the mode rule and the pricing of every node through its charge
// functions.
func BenchmarkPrepare(b *testing.B) {
	e := engine.New(engine.SQLite, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	var stmts []*sql.SelectStmt
	for _, q := range tpch.SQLQueries() {
		stmt, err := sql.Parse(q.Text)
		if err != nil {
			b.Fatal(err)
		}
		stmts = append(stmts, stmt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, stmt := range stmts {
			if _, err := Prepare(e, stmt); err != nil {
				b.Fatal(err)
			}
		}
	}
}
