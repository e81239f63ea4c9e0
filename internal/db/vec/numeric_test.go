package vec

import (
	"math"
	"math/rand"
	"testing"

	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// TestEvalNumericMatchesBoxedLoop drives the typed BinOp loop and the
// Get/ApplyBin/Set loop it stands in for over the same operands — every
// operator, int, date, float and string payloads, constants, NULLs, a
// selection vector, fresh and previously typed output vectors — and requires
// the two to leave the output vector in the same state wherever the typed
// loop accepts the operands.
func TestEvalNumericMatchesBoxedLoop(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	arena := memsim.NewArena(1<<20, 1<<30)
	datum := func(typ value.Type) value.Value {
		switch typ {
		case value.TypeInt:
			return value.Int(int64(rng.Intn(7)) - 3)
		case value.TypeDate:
			return value.Date(int64(rng.Intn(5)))
		case value.TypeFloat:
			return value.Float([]float64{0, 0.5, -1.25, 3, math.Inf(1), math.NaN()}[rng.Intn(6)])
		}
		return value.Str("s")
	}
	operand := func(typ value.Type, shape int) *Vector {
		if shape == 0 {
			return NewConst(datum(typ))
		}
		v := NewVector(arena, typ, n)
		for i := 0; i < n; i++ {
			if shape == 2 && i%9 == 4 {
				v.Set(i, value.Null())
				continue
			}
			v.Set(i, datum(typ))
		}
		return v
	}
	b := &Batch{N: n}
	for i := 0; i < n; i += 2 {
		b.Sel = append(b.Sel, int32(i))
	}
	types := []value.Type{value.TypeInt, value.TypeDate, value.TypeFloat, value.TypeStr}
	typed := 0
	for op := exec.OpAdd; op <= exec.OpOr; op++ {
		for _, lt := range types {
			for _, rt := range types {
				for shape := 0; shape < 9; shape++ {
					l, r := operand(lt, shape/3), operand(rt, shape%3)
					for _, prior := range []value.Type{value.TypeNull, value.TypeInt, value.TypeFloat} {
						got, want := NewVector(arena, value.TypeNull, n), NewVector(arena, value.TypeNull, n)
						if prior != value.TypeNull {
							got.Set(1, datum(prior))
							want.Set(1, got.Get(1))
						}
						if !evalNumeric(op, l, r, got, b) {
							continue
						}
						typed++
						for k := 0; k < b.Len(); k++ {
							i := b.Pos(k)
							want.Set(i, exec.ApplyBin(op, l.Get(i), r.Get(i)))
						}
						if got.T != want.T || (got.raw == nil) != (want.raw == nil) {
							t.Fatalf("op %d %v∘%v shape %d prior %v: typed loop left T=%v raw=%v, boxed loop T=%v raw=%v",
								op, lt, rt, shape, prior, got.T, got.raw != nil, want.T, want.raw != nil)
						}
						for i := 0; i < n; i++ {
							g, w := got.Get(i), want.Get(i)
							same := g.T == w.T && g.I == w.I && g.S == w.S &&
								(g.F == w.F || math.IsNaN(g.F) && math.IsNaN(w.F))
							if !same {
								t.Fatalf("op %d %v∘%v shape %d prior %v, position %d: typed loop %v, boxed loop %v", op, lt, rt, shape, prior, i, g, w)
							}
						}
					}
				}
			}
		}
	}
	if typed == 0 {
		t.Fatal("the typed loop accepted no operand pair")
	}
	t.Logf("%d operand/operator/output combinations ran typed", typed)
}
