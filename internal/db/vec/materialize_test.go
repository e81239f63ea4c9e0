package vec

import (
	"reflect"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// access is one event the hierarchy executed.
type access struct {
	kind memsim.AccessKind
	addr uint64
	n    uint64
}

// recording installs a recorder on ctx's hierarchy that appends every access
// it executes while fn runs, and returns them.
func recording(ctx *exec.Ctx, fn func()) []access {
	var got []access
	ctx.M.Hier.SetRecorder(func(kind memsim.AccessKind, addr, n uint64) { got = append(got, access{kind, addr, n}) })
	defer ctx.M.Hier.SetRecorder(nil)
	fn()
	return got
}

// at sums the loads and the stores the events issue at addr.
func at(events []access, addr uint64) (loads, stores uint64) {
	for _, a := range events {
		if a.addr != addr {
			continue
		}
		switch a.kind {
		case memsim.AccessLoadDep, memsim.AccessLoadInd, memsim.AccessLoadRepeat:
			loads += a.n
		case memsim.AccessStore, memsim.AccessStoreRepeat:
			stores += a.n
		}
	}
	return loads, stores
}

// interpreterStores fails t for every store among events at a line no
// dispatch stores to: dispatches store the interpreter's own state, which
// rotates over a few hot lines; every other store is payload.
func interpreterStores(t *testing.T, ctx *exec.Ctx, events []access) {
	t.Helper()
	dispatches := recording(ctx, func() { ChargeDispatch(ctx, exec.Card{Batches: 64}) })
	for _, a := range events {
		if a.kind != memsim.AccessStore && a.kind != memsim.AccessStoreRepeat {
			continue
		}
		if _, stores := at(dispatches, a.addr); stores == 0 {
			t.Errorf("store of %d at %#x, which no dispatch stores to", a.n, a.addr)
		}
	}
}

// lazySchema is the schema of lazyBatch's rows.
var lazySchema = catalog.NewSchema(
	catalog.Column{Name: "id", Type: value.TypeInt},
	catalog.Column{Name: "price", Type: value.TypeFloat},
	catalog.Column{Name: "grp", Type: value.TypeInt},
)

// lazyBatch hand-builds a lazily backed batch of n rows (id, price, grp):
// id i, price i/2, grp i%3. Its rows were assembled at the line it returns,
// which a fused read loads from.
func lazyBatch(ctx *exec.Ctx, n int) (*Batch, uint64) {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Float(float64(i) / 2), value.Int(int64(i % 3))}
	}
	b := NewBatch(ctx.Arena, lazySchema, n)
	b.SetRows(rows)
	b.at = ctx.Arena.Alloc(memsim.LineSize, memsim.LineSize)
	return b, b.at
}

// newCtx is a SQLite-profile engine's executor context.
func newCtx() *exec.Ctx {
	return engine.New(engine.SQLite, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline).Ctx
}

// TestFusedReadStoresNothing: an aggregate program's loop over
// SUM(price * 2) is the one consumer of price. It loads price once per
// selected element at the rows' line, and price stores nothing and draws no
// address: the arena is where it was, the only stores are the dispatch's
// interpreter state, and the column is left read, not stored.
func TestFusedReadStoresNothing(t *testing.T) {
	ctx := newCtx()
	b, rowsAt := lazyBatch(ctx, 100)
	b.narrowSel(func(i int) bool { return i%4 != 0 }) // 75 selected
	p := CompileAgg(nil, []exec.AggSpec{{Kind: exec.AggSum, Arg: bin(exec.OpMul, col(1), num(2))}})
	used := ctx.Arena.Used()
	events := recording(ctx, func() { EvalEach(ctx, p)(b) })
	if got := ctx.Arena.Used(); got != used {
		t.Errorf("the loop drew %d bytes of arena", got-used)
	}
	if b.Cols[1].addr != 0 {
		t.Error("price drew a vector address")
	}
	interpreterStores(t, ctx, events)
	if loads, _ := at(events, rowsAt); loads != 75 {
		t.Errorf("%d loads at the rows' line, want one per selected element (75)", loads)
	}
	if b.state[1] != Fused {
		t.Errorf("price is %v after one loop read it, want Fused", b.state[1])
	}
}

// TestSecondConsumerStoresOnce: a filter conjunct price > 10 reads price,
// then the aggregate's loop over it reads it again. The second read stores
// price once, over exactly the filter's survivors, with one materializing
// primitive; the aggregate loads the stored vector.
func TestSecondConsumerStoresOnce(t *testing.T) {
	ctx := newCtx()
	b, _ := lazyBatch(ctx, 100)
	filter := CompileFilter(bin(exec.OpGt, col(1), num(10)))
	agg := CompileAgg([]exec.Expr{col(2)}, []exec.AggSpec{{Kind: exec.AggSum, Arg: col(1)}})
	pl := newPool(ctx)
	events := recording(ctx, func() {
		filter.filter(ctx, pl, b, nil)
		if b.state[1] != Fused {
			t.Errorf("price is %v after the filter, want Fused", b.state[1])
		}
		agg.eval(ctx, pl, b)
	})
	survivors := uint64(b.Len())
	if survivors != 79 { // prices 10.5 .. 49.5
		t.Fatalf("%d survivors of price > 10, want 79", survivors)
	}
	addr := b.Cols[1].addr
	if addr == 0 {
		t.Fatal("price was never stored")
	}
	if loads, stores := at(events, addr); stores != survivors || loads != survivors {
		t.Errorf("price's vector took %d stores and %d loads, want one of each for each of the %d survivors", stores, loads, survivors)
	}
	if b.state[1] != Stored || b.state[2] != Fused {
		t.Errorf("price is %v and grp %v, want Stored and Fused", b.state[1], b.state[2])
	}
	var sum float64
	for k := 0; k < b.Len(); k++ {
		sum += b.Cols[1].Get(b.Pos(k)).F
	}
	if sum != 2370 { // 10.5 + 11 + ... + 49.5
		t.Errorf("the stored survivors sum to %v, want 2370", sum)
	}
}

// once hands out one batch.
type once struct {
	b      *Batch
	schema *catalog.Schema
}

func (o *once) Schema() *catalog.Schema { return o.schema }
func (o *once) Open() error             { return nil }
func (o *once) Close() error            { return nil }
func (o *once) Next() (*Batch, error) {
	b := o.b
	o.b = nil
	return b, nil
}

// TestPruneHandsLazyBatchThrough: Prune over a lazily backed batch keeps it
// lazily backed. It remaps the slots and carries each kept column's state,
// stores nothing and draws no address, and a row consumer above it reads
// the kept columns, in Prune's order, straight from the rows.
func TestPruneHandsLazyBatchThrough(t *testing.T) {
	ctx := newCtx()
	b, _ := lazyBatch(ctx, 10)
	b.take(ctx, 2, Read) // grp: one loop below the prune read it
	prune := &Prune{Ctx: ctx, Child: &once{b: b, schema: lazySchema}, Cols: []int{2, 0}}
	if err := prune.Open(); err != nil {
		t.Fatal(err)
	}
	used := ctx.Arena.Used()
	var out *Batch
	events := recording(ctx, func() {
		var err error
		if out, err = prune.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if out.rows == nil || !reflect.DeepEqual(out.raw, []int{2, 0}) || !reflect.DeepEqual(out.state, []ColState{Fused, Untouched}) {
		t.Fatalf("pruned batch: rows backed %v, slots %v, states %v; want backed, [2 0], [Fused Untouched]",
			out.rows != nil, out.raw, out.state)
	}
	if ctx.Arena.Used() != used || b.Cols[0].addr != 0 || b.Cols[2].addr != 0 {
		t.Error("the prune drew a vector address")
	}
	interpreterStores(t, ctx, events)
	row := make(value.Row, 2)
	out.Row(7, row)
	if !reflect.DeepEqual(row, value.Row{value.Int(1), value.Int(7)}) {
		t.Errorf("row 7 through the prune = %v, want [grp 1, id 7]", row)
	}
}

// TestFusedReadAfterEviction: a scan over a four-frame pool hands out a
// batch that spans more pages than the pool holds, so its first page is
// gone before a consumer reads a column. The aggregate's fused read of price
// still loads price's line in the batch's first row where the scan
// streamed it, once per row.
func TestFusedReadAfterEviction(t *testing.T) {
	e := engine.New(engine.SQLite, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	ctx := e.Ctx
	pool := storage.NewBufferPool(e.Dev, 0, 512) // 4 frames of 20 rows
	hf := storage.NewHeapFile(e.Dev, pool, lazySchema, 0, storage.Rows)
	for i := range 200 {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(float64(i) / 2), value.Int(int64(i % 3))})
	}
	scan := &Scan{Ctx: ctx, File: hf, BatchSize: 128}
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	var b *Batch
	streamed := map[uint64]bool{}
	for _, a := range recording(ctx, func() {
		var err error
		if b, err = scan.Next(); err != nil || b == nil {
			t.Fatalf("scan: %v, %v", b, err)
		}
	}) {
		if a.kind == memsim.AccessLoadInd {
			streamed[a.addr/memsim.LineSize] = true
		}
	}
	if res, _ := hf.ResidentPages(storage.Reads{}); res >= 128/20 {
		t.Fatalf("%d pages resident: the batch's pages all fit the pool", res)
	}
	p := CompileAgg(nil, []exec.AggSpec{{Kind: exec.AggSum, Arg: bin(exec.OpMul, col(1), num(2))}})
	events := recording(ctx, func() { EvalEach(ctx, p)(b) })
	line := b.rowLine(1)
	if !streamed[line/memsim.LineSize] {
		t.Errorf("price is read at %#x, a line the scan did not stream", line)
	}
	if loads, _ := at(events, line); loads != 128 {
		t.Errorf("%d loads at price's line, want one per row (128)", loads)
	}
}
