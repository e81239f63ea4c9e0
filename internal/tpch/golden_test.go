package tpch

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/db/value"
)

// goldenRowCounts10MB pins the result cardinality of every TPC-H text on the
// deterministic 10MB dataset. Any change to the generator, the optimizer or
// either executor that alters how many rows a query returns trips
// TestGoldenRowCounts.
var goldenRowCounts10MB = map[int]int{
	1: 4, 2: 0, 3: 10, 4: 5, 5: 4, 6: 1, 7: 2, 8: 1, 9: 19, 10: 20,
	11: 8, 12: 2, 13: 100, 14: 1, 15: 1, 16: 27, 17: 2, 18: 100, 19: 1,
	20: 100, 21: 1, 22: 1,
}

// resultDigests10MB pins the resultDigest of every TPC-H text's rows on the
// same dataset, so a change that keeps the count but alters a value trips
// TestResultDigests.
var resultDigests10MB = map[int]uint64{
	1: 0x4a587bbc72a913dc, 2: 0x8258ec923e59fc29, 3: 0x4396fce3bdf7816f,
	4: 0x202b2c2173e7bcf1, 5: 0x7b0e8aaf1c734517, 6: 0x7f295e9be4bf10ba,
	7: 0x300bb974fdc897e0, 8: 0x87c1f2c00508e968, 9: 0x9cf7de0dccf71231,
	10: 0x08406a3dcc86ae73, 11: 0x1d24f3435618008f, 12: 0xf6327dd3e3ad5509,
	13: 0xa0e2bff531c03fd7, 14: 0x74d824b73e4da228, 15: 0xbd4aa451461fd099,
	16: 0x16a2382381c7eecd, 17: 0x58af37e6df38b900, 18: 0xcf96240a2f4d2523,
	19: 0x939a50ce1c8d4974, 20: 0x4531d37f92e9372a, 21: 0x38349c265abe22f9,
	22: 0x944e347bafdf8f32,
}

// resultDigest hashes a result the way the benchmark's oracle does
// (bench/check.go hashResult): the column names, then every row with floats
// kept to nine significant digits, so sums added in another order agree;
// rows are sorted first unless the statement orders them.
func resultDigest(cols []string, rows []value.Row, ordered bool) uint64 {
	lines := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			switch v.T {
			case value.TypeNull:
				sb.WriteString("N")
			case value.TypeInt:
				sb.WriteString("I" + strconv.FormatInt(v.I, 10))
			case value.TypeFloat:
				f := v.F
				if f == 0 {
					f = 0 // fold -0 into +0
				}
				sb.WriteString("F" + strconv.FormatFloat(f, 'e', 8, 64))
			case value.TypeStr:
				sb.WriteString("S" + v.S)
			case value.TypeDate:
				sb.WriteString("D" + strconv.FormatInt(v.I, 10))
			}
			sb.WriteByte(0x1f)
		}
		lines[i] = sb.String()
	}
	if !ordered {
		sort.Strings(lines)
	}
	h := fnv.New64a()
	for _, c := range cols {
		h.Write([]byte(c))
		h.Write([]byte{0x1f})
	}
	for _, l := range lines {
		h.Write([]byte{0x1e})
		h.Write([]byte(l))
	}
	return h.Sum64()
}

// runBothExecutors runs every TPC-H text twice on the SQLite 10MB profile —
// the optimizer free to choose vector operators, then DisableVectorExec
// forcing the row executor — and hands each answer to check.
func runBothExecutors(t *testing.T, check func(q SQLQuery, row bool, names []string, rows []value.Row)) {
	t.Helper()
	e := testEngine(t, engine.SQLite)
	for _, q := range SQLQueries() {
		for _, row := range []bool{false, true} {
			e.Knobs.DisableVectorExec = row
			rows, names, err := plan.Run(e, q.Text)
			if err != nil {
				t.Fatalf("Q%d row=%v: %v", q.ID, row, err)
			}
			check(q, row, names, rows)
		}
	}
}

// TestGoldenRowCounts holds both executors' answers to the pinned row count.
func TestGoldenRowCounts(t *testing.T) {
	runBothExecutors(t, func(q SQLQuery, row bool, _ []string, rows []value.Row) {
		if want := goldenRowCounts10MB[q.ID]; len(rows) != want {
			t.Errorf("Q%d row=%v: rows = %d, want %d", q.ID, row, len(rows), want)
		}
	})
}

// TestResultDigests holds both executors' answers to the pinned digest, so
// the two executors agree on all 22 texts.
func TestResultDigests(t *testing.T) {
	runBothExecutors(t, func(q SQLQuery, row bool, names []string, rows []value.Row) {
		ordered := strings.Contains(q.Text, "ORDER BY")
		if got, want := resultDigest(names, rows, ordered), resultDigests10MB[q.ID]; got != want {
			t.Errorf("Q%d row=%v: digest %#016x, want %#016x", q.ID, row, got, want)
		}
	})
}

// TestMostQueriesProduceRows guards against silently-empty plans: at the
// 100MB class all but the most selective query should return data.
func TestMostQueriesProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("100MB load in -short mode")
	}
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(engine.PostgreSQL, m, engine.SettingBaseline)
	Setup(e, Size100MB)
	empty := 0
	for _, q := range SQLQueries() {
		rows, _, err := plan.Run(e, q.Text)
		if err != nil {
			t.Fatalf("Q%d: %v", q.ID, err)
		}
		if len(rows) == 0 {
			empty++
			t.Logf("Q%d returned no rows", q.ID)
		}
	}
	if empty > 1 {
		t.Errorf("%d queries returned no rows at 100MB", empty)
	}
}

func TestColorNamesEnableQ9(t *testing.T) {
	d := Generate(Size10MB, 7421)
	green := 0
	for _, r := range d.Part {
		name := r[1].S
		if contains(name, "green") {
			green++
		}
	}
	if green == 0 {
		t.Fatal("no part names contain 'green'; Q9 would be empty")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestNationCoverage(t *testing.T) {
	d := Generate(Size10MB, 7421)
	supNations := map[int64]bool{}
	for _, r := range d.Supplier {
		supNations[r[2].AsInt()] = true
	}
	if len(supNations) != 25 {
		t.Fatalf("suppliers cover %d nations, want all 25", len(supNations))
	}
	custNations := map[int64]bool{}
	for _, r := range d.Customer {
		custNations[r[2].AsInt()] = true
	}
	if len(custNations) != 25 {
		t.Fatalf("customers cover %d nations, want all 25", len(custNations))
	}
}
