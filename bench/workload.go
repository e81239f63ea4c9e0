package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"energydb/internal/db/value"
	"energydb/internal/tpch"
)

// numClients is the closed loop's width: one goroutine, one connection and
// one server worker per client. The container has two cores; a third client
// would measure the host scheduler, not the server.
const numClients = 2

// dataSeed is the seed tpch.Setup loads every store with. The oracle
// regenerates the same rows to know what a point lookup must return; if
// Setup's seed ever changes, every point lookup fails its check at once.
const dataSeed = 7421

// insertBase keeps the writer's inserted order keys clear of the loaded ones.
const insertBase = 1_000_000

// hotKeys is the size of the order-key set the txn-mixed writer updates and
// its reader looks up.
const hotKeys = 256

// verifyKind says how a statement's result is checked.
type verifyKind uint8

const (
	verifyHash     verifyKind = iota // result hash must equal want
	verifyHotRead                    // value must be one the writer could have committed (see hotSet.checkRead)
	verifyHotWrite                   // verifyHash, and the statement stores its operation number under a hot key
)

// stmt is one SQL statement of an operation. In text, "$N" stands for the
// client's running operation number, "$K" for the order key that operation
// inserts and "$D" for the key inserted five operations earlier, so a fixed
// list still writes fresh values on every pass.
type stmt struct {
	text    string
	verify  verifyKind
	want    uint64 // verifyHash: expected result hash
	pick    []int  // verifyHash: result columns hashed (nil = all)
	ordered bool   // verifyHash: row order is part of the result
	hot     int    // verifyHotRead, verifyHotWrite: index into the hot set
	// wantFirst replaces want while the running number is at most five: the
	// first DELETE of a writer pass has no earlier insert to remove.
	wantFirst uint64
}

// op is one operation of the closed loop: what one latency sample covers.
type op struct {
	typ   string // latency class: q01 q03 q05 q06 q14 point scan txn
	txn   bool   // stmts run between Begin and Commit TxnCtl frames
	stmts []stmt
}

// workload is one traffic mix. lists holds one fixed, seed-generated
// operation list per client; a client walks its list in order, wraps around,
// and stops only at a multiple of cycle so every run measures whole cycles
// of the same mix.
type workload struct {
	name  string
	why   string
	class tpch.SizeClass
	lists [numClients][]op
	cycle [numClients]int
	warm  int     // untimed cycles each client runs during set-up
	hot   *hotSet // txn-mixed only: the keys writer and reader share
}

var workloadNames = []string{"analytic-resident", "analytic-spill", "point-lookup", "txn-mixed"}

// workloadWhy is the one-sentence reason each workload exists; BENCHMARK.json
// carries the same text.
var workloadWhy = map[string]string{
	"analytic-resident": "10MB class fits the simulated 8 MB L3: execution is most of host time and over half of that is memsim hit path, so a memsim or vec change must show here",
	"analytic-spill":    "100MB class exceeds the simulated L3: same statements, but cache fill, eviction and the prefetcher run and Q1 plans vector mode, so hit-path-only or row-only gains split from analytic-resident",
	"point-lookup":      "single-row indexed SELECTs: the simulator does almost nothing, so socket, wire, parse, plan.Prepare, build and scheduler hand-off are the statement; a memsim or vec change predicts no change",
	"txn-mixed":         "one writer and one reader on the same table: version chains and WAL grow all run, so a scan gain that costs writes or a write path that bloats readers or the heap shows only here",
}

// analyticCycle is the per-client cycle of ten: p50 lands inside Q3's mass
// and p90 inside Q1's at both size classes.
var analyticCycle = []int{6, 6, 6, 14, 3, 3, 5, 5, 1, 1}

const scanSQL = "SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders " +
	"WHERE o_orderdate < '1995-01-01' GROUP BY o_orderpriority"

func typeOfQuery(id int) string { return fmt.Sprintf("q%02d", id) }

// newWorkload generates the named workload's operation lists from seed.
// golden supplies the committed result hashes; with updating set they are
// left zero for the caller to fill in.
func newWorkload(name string, seed int64, golden goldenSums) (*workload, error) {
	why, ok := workloadWhy[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	w := &workload{name: name, why: why, class: tpch.Size10MB, warm: 1}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "analytic-resident":
		return w, w.genAnalytic(rng, golden)
	case "analytic-spill":
		w.class = tpch.Size100MB
		return w, w.genAnalytic(rng, golden)
	case "point-lookup":
		w.genPoint(rng)
	case "txn-mixed":
		w.genTxn(rng, golden)
	}
	return w, nil
}

func (w *workload) genAnalytic(rng *rand.Rand, golden goldenSums) error {
	const cycles = 32
	byID := make(map[int]op)
	for _, id := range analyticCycle {
		if _, ok := byID[id]; ok {
			continue
		}
		q, err := tpch.SQLByID(id)
		if err != nil {
			return err
		}
		typ := typeOfQuery(id)
		byID[id] = op{typ: typ, stmts: []stmt{{
			text:    q.Text,
			want:    golden.get(w.class, typ),
			ordered: strings.Contains(q.Text, "ORDER BY"),
		}}}
	}
	for c := range w.lists {
		w.cycle[c] = len(analyticCycle)
		for i := 0; i < cycles; i++ {
			for _, j := range rng.Perm(len(analyticCycle)) {
				w.lists[c] = append(w.lists[c], byID[analyticCycle[j]])
			}
		}
	}
	return nil
}

// genPoint draws single-row lookups on three indexed tables in equal thirds.
// What each must return comes from regenerating the loaded rows, not from the
// server.
func (w *workload) genPoint(rng *rand.Rand) {
	const groups = 4096
	// The first touch of a page costs a simulated disk read, thousands of
	// times a lookup's own simulated time; one cycle of three lookups would
	// leave most of those reads inside the timed phase, where their share
	// would depend on how many lookups the host got through.
	w.warm = groups / 2
	d := tpch.Generate(w.class, dataSeed)
	draw := []func() op{
		func() op {
			r := d.Orders[rng.Intn(len(d.Orders))]
			return pointOp("SELECT o_totalprice, o_orderdate FROM orders WHERE o_orderkey = "+r[0].String(),
				[]string{"o_totalprice", "o_orderdate"}, value.Row{r[3], r[4]})
		},
		func() op {
			r := d.Customer[rng.Intn(len(d.Customer))]
			return pointOp("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = "+r[0].String(),
				[]string{"c_name", "c_acctbal"}, value.Row{r[1], r[4]})
		},
		func() op {
			r := d.Nation[rng.Intn(len(d.Nation))]
			return pointOp("SELECT n_name FROM nation WHERE n_nationkey = "+r[0].String(),
				[]string{"n_name"}, value.Row{r[1]})
		},
	}
	for c := range w.lists {
		w.cycle[c] = len(draw)
		for i := 0; i < groups; i++ {
			for _, j := range rng.Perm(len(draw)) {
				w.lists[c] = append(w.lists[c], draw[j]())
			}
		}
	}
}

func pointOp(text string, cols []string, row value.Row) op {
	return op{typ: "point", stmts: []stmt{{text: text, want: hashResult(cols, []value.Row{row}, nil, true)}}}
}

// affected is the result hash of a DML statement that changed n rows.
func affected(n int64) uint64 {
	return hashResult([]string{"rows_affected"}, []value.Row{{value.Int(n)}}, nil, true)
}

// genTxn builds client 0 as the writer and client 1 as the reader of one
// 256-key hot set of orders.
func (w *workload) genTxn(rng *rand.Rand, golden goldenSums) {
	const writerCycles, readerCycles = 1024, 512
	d := tpch.Generate(w.class, dataSeed)
	w.hot = newHotSet(rng, d.Orders)
	one, none := affected(1), affected(0)

	w.cycle[0] = 5
	for i := 0; i < writerCycles*5; i++ {
		o := op{typ: "txn", txn: true}
		if i%5 == 4 {
			// The btree write path: a new key in, the previous pass's key out.
			o.stmts = []stmt{
				// Day 2341 is mid-1998, after the reader's scan filter.
				{text: "INSERT INTO orders VALUES ($K, 0, 'O', 1.00, 2341, '5-LOW', 0)", want: one},
				{text: "DELETE FROM orders WHERE o_orderkey = $D", want: one, wantFirst: none},
			}
		} else {
			h := rng.Intn(hotKeys)
			o.stmts = []stmt{
				{text: "UPDATE orders SET o_totalprice = $N WHERE o_orderkey = " + strconv.FormatInt(w.hot.keys[h], 10), verify: verifyHotWrite, want: one, hot: h},
				{text: "UPDATE nation SET n_regionkey = $N WHERE n_nationkey = 24", want: one},
			}
		}
		w.lists[0] = append(w.lists[0], o)
	}

	w.cycle[1] = 8
	scan := op{typ: "scan", stmts: []stmt{{
		text: scanSQL,
		// The writer moves o_totalprice under the scan, so only the group
		// keys and counts are fixed; inserted rows are dated after the filter.
		want: golden.get(w.class, "scan"), pick: []int{0, 1},
	}}}
	for i := 0; i < readerCycles; i++ {
		w.lists[1] = append(w.lists[1], scan)
		for j := 0; j < 7; j++ {
			h := rng.Intn(hotKeys)
			w.lists[1] = append(w.lists[1], op{typ: "point", stmts: []stmt{{
				text:   "SELECT o_totalprice FROM orders WHERE o_orderkey = " + strconv.FormatInt(w.hot.keys[h], 10),
				verify: verifyHotRead, hot: h,
			}}})
		}
	}
}

// listHash is the SHA-256 of one client's operation list, so two runs can
// prove they sent the same input.
func listHash(list []op) string {
	h := sha256.New()
	for _, o := range list {
		fmt.Fprintf(h, "%s\x00%t", o.typ, o.txn)
		for _, s := range o.stmts {
			fmt.Fprintf(h, "\x00%s", s.text)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expand substitutes the running operation number into a statement text.
func expand(text string, n int64) string {
	if !strings.Contains(text, "$") {
		return text
	}
	return strings.NewReplacer(
		"$N", strconv.FormatInt(n, 10),
		"$K", strconv.FormatInt(insertBase+n, 10),
		"$D", strconv.FormatInt(insertBase+n-5, 10),
	).Replace(text)
}
