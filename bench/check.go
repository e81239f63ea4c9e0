package main

import (
	"embed"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"energydb/internal/db/value"
	"energydb/internal/server"
	"energydb/internal/server/wire"
	"energydb/internal/tpch"
)

//go:embed testdata/*.sum
var goldenFS embed.FS

// goldenDir is where -update-golden writes, relative to the repository root.
const goldenDir = "bench/testdata"

// goldenSums holds the committed result hash of every statement whose
// answer is fixed by the loaded data: class → statement type → hash.
type goldenSums map[string]map[string]uint64

func (g goldenSums) get(class tpch.SizeClass, typ string) uint64 {
	return g[class.String()][typ]
}

func (g goldenSums) set(class tpch.SizeClass, typ string, sum uint64) {
	if g[class.String()] == nil {
		g[class.String()] = make(map[string]uint64)
	}
	g[class.String()][typ] = sum
}

// loadGolden reads the embedded testdata/<class>.sum files: one
// "<statement type> <16 hex digits>" line per statement.
func loadGolden() (goldenSums, error) {
	g := make(goldenSums)
	files, err := goldenFS.ReadDir("testdata")
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		class := strings.TrimSuffix(f.Name(), ".sum")
		data, err := goldenFS.ReadFile("testdata/" + f.Name())
		if err != nil {
			return nil, err
		}
		g[class] = make(map[string]uint64)
		for _, line := range strings.Split(string(data), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("golden %s: bad line %q", f.Name(), line)
			}
			sum, err := strconv.ParseUint(fields[1], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", f.Name(), err)
			}
			g[class][fields[0]] = sum
		}
	}
	return g, nil
}

// writeGolden rewrites one class's sum file with the observed hashes.
func writeGolden(class string, sums map[string]uint64) error {
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s %016x\n", n, sums[n])
	}
	return os.WriteFile(filepath.Join(goldenDir, class+".sum"), []byte(sb.String()), 0o644)
}

// canonValue renders one datum for hashing. Floats keep nine significant
// digits so row-mode and vector-mode sums, which add in different orders,
// agree; every type carries a tag so NULL, the empty string and zero differ.
func canonValue(v value.Value) string {
	switch v.T {
	case value.TypeNull:
		return "N"
	case value.TypeInt:
		return "I" + strconv.FormatInt(v.I, 10)
	case value.TypeFloat:
		f := v.F
		if f == 0 {
			f = 0 // fold -0 into +0
		}
		return "F" + strconv.FormatFloat(f, 'e', 8, 64)
	case value.TypeStr:
		return "S" + v.S
	case value.TypeDate:
		return "D" + strconv.FormatInt(v.I, 10)
	default:
		return "?"
	}
}

// hashResult hashes a result set: the column names, then every row. pick
// restricts the hash to some columns; unless ordered, rows are sorted first
// so a hash aggregate's emission order is not part of the answer.
func hashResult(cols []string, rows []value.Row, pick []int, ordered bool) uint64 {
	n := len(cols)
	if pick != nil {
		n = len(pick)
	}
	col := func(i int) int {
		if pick != nil {
			return pick[i]
		}
		return i
	}
	lines := make([]string, len(rows))
	var sb strings.Builder
	for i, r := range rows {
		sb.Reset()
		for j := 0; j < n; j++ {
			if c := col(j); c < len(r) {
				sb.WriteString(canonValue(r[c]))
			}
			sb.WriteByte(0x1f)
		}
		lines[i] = sb.String()
	}
	if !ordered {
		sort.Strings(lines)
	}
	h := fnv.New64a()
	for j := 0; j < n; j++ {
		if c := col(j); c < len(cols) {
			h.Write([]byte(cols[c]))
		}
		h.Write([]byte{0x1f})
	}
	for _, l := range lines {
		h.Write([]byte{0x1e})
		h.Write([]byte(l))
	}
	return h.Sum64()
}

// checkEnergy verifies that a report's Eq. 1 components sum to its E_active.
// The last component is E_other, the residual.
func checkEnergy(rep *wire.EnergyReport) error {
	sum := 0.0
	for _, j := range rep.Joules {
		sum += j
	}
	if closeRel(sum, rep.EActive, 1e-9) {
		return nil
	}
	// core.BreakdownCounters clamps a negative E_other residual to zero, so
	// when the modelled terms exceed the measurement the components overshoot
	// it. That is the model's stated behaviour, not a lost joule.
	if rep.Joules[len(rep.Joules)-1] == 0 && sum > rep.EActive {
		return nil
	}
	return fmt.Errorf("%s: components sum to %g J, E_active is %g J", rep.Name, sum, rep.EActive)
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// hotSet is the txn-mixed oracle's fixed part: the order keys the writer
// updates and the reader looks up, with o_totalprice as loaded.
type hotSet struct {
	keys [hotKeys]int64
	orig [hotKeys]float64
}

// hotState is what the writer has done to the hot set of one booted server.
// The writer only ever stores its running operation number, which grows, so
// at any moment a key's committed value lies between the last value the
// writer saw acknowledged and the last value it sent.
type hotState struct {
	issued    [hotKeys]atomic.Int64 // last value sent in an UPDATE
	committed [hotKeys]atomic.Int64 // last value whose Commit was acknowledged; 0 = none
}

func newHotSet(rng *rand.Rand, orders []value.Row) *hotSet {
	h := &hotSet{}
	for i, j := range rng.Perm(len(orders))[:hotKeys] {
		h.keys[i] = orders[j][0].I
		h.orig[i] = orders[j][3].F
	}
	return h
}

// checkRead judges a reader's view of key i. floor is the committed value as
// read before the SELECT was sent, ceil the issued value as read after the
// reply: a snapshot that started after a commit must see it (or a later
// one), and can never see a value the writer had not yet sent.
func (h *hotSet) checkRead(i int, got float64, floor, ceil int64) error {
	if floor == 0 && got == h.orig[i] {
		return nil
	}
	if got == math.Trunc(got) && int64(got) >= max(floor, 1) && int64(got) <= ceil {
		return nil
	}
	return fmt.Errorf("order %d: read o_totalprice %v, writer had committed %d and sent at most %d (loaded value %v)",
		h.keys[i], got, floor, ceil, h.orig[i])
}

// checkFinal compares key i's value after the run with the writer's last
// committed one (0 = never written).
func (h *hotSet) checkFinal(i int, got float64, committed int64) error {
	want := h.orig[i]
	if committed != 0 {
		want = float64(committed)
	}
	if got != want {
		return fmt.Errorf("order %d: o_totalprice is %v after the run, writer last committed %v", h.keys[i], got, want)
	}
	return nil
}

// checkLedgers verifies the energy ledger partition once the server is
// closed (workers drained): the session ledgers sum to the server total, and
// that total is what the clients were told, statement by statement.
// lastSession is each client's final SessionActive.
func checkLedgers(srv *server.Server, lastSession []float64) error {
	tot, sess := srv.Totals(), srv.SessionTotals()
	if tot.Queries != sess.Queries || !closeRel(tot.EActive, sess.EActive, 1e-9) || !closeRel(tot.Seconds, sess.Seconds, 1e-9) {
		return fmt.Errorf("ledger partition: sessions hold %d statements, %g J; server total is %d statements, %g J",
			sess.Queries, sess.EActive, tot.Queries, tot.EActive)
	}
	told := 0.0
	for _, s := range lastSession {
		told += s
	}
	if !closeRel(told, tot.EActive, 1e-9) {
		return fmt.Errorf("ledger: clients were told %g J in total, server total is %g J", told, tot.EActive)
	}
	return nil
}
