// Package value defines the datum types that flow through the database
// engines: 64-bit integers, 64-bit floats, fixed-width strings and dates
// (stored as days). Values are compact and comparable; the storage layer
// maps them onto fixed-width row slots in simulated memory.
package value

import (
	"cmp"
	"fmt"
	"strconv"
)

// Type enumerates datum types.
type Type uint8

// Datum types.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeStr
	TypeDate // days since 1992-01-01 (the TPC-H epoch)
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeStr:
		return "str"
	case TypeDate:
		return "date"
	default:
		return "unknown"
	}
}

// Value is one datum. The zero Value is NULL.
type Value struct {
	T Type
	I int64   // TypeInt, TypeDate
	F float64 // TypeFloat
	S string  // TypeStr
}

// Int builds an integer datum.
func Int(v int64) Value { return Value{T: TypeInt, I: v} }

// Float builds a float datum.
func Float(v float64) Value { return Value{T: TypeFloat, F: v} }

// Str builds a string datum.
func Str(v string) Value { return Value{T: TypeStr, S: v} }

// Date builds a date datum from days since the TPC-H epoch (1992-01-01).
func Date(days int64) Value { return Value{T: TypeDate, I: days} }

// Null is the NULL datum.
func Null() Value { return Value{} }

// IsNull reports whether the datum is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// AsFloat coerces numeric datums to float64.
func (v Value) AsFloat() float64 {
	switch v.T {
	case TypeInt, TypeDate:
		return float64(v.I)
	case TypeFloat:
		return v.F
	default:
		return 0
	}
}

// AsInt coerces numeric datums to int64.
func (v Value) AsInt() int64 {
	switch v.T {
	case TypeInt, TypeDate:
		return v.I
	case TypeFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// Compare orders two datums: -1, 0, +1. NULL sorts first. Numeric types
// compare by value across int/float/date; strings compare lexically. Two
// integers (or dates) compare as integers: through float64 every pair above
// 2^53 that rounds to one float would compare equal, though Hash tells them
// apart.
func Compare(a, b Value) int {
	if isInt(a.T) && isInt(b.T) {
		return cmp.Compare(a.I, b.I)
	}
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if a.T == TypeStr || b.T == TypeStr {
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// isInt reports whether a datum of type t carries its value in I.
func isInt(t Type) bool { return t == TypeInt || t == TypeDate }

// Equal reports datum equality under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// String renders the datum for display.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'f', 2, 64)
	case TypeStr:
		return v.S
	case TypeDate:
		return fmt.Sprintf("D+%d", v.I)
	default:
		return "?"
	}
}

// Row is one tuple.
type Row []Value

// Clone copies a row (operators that buffer rows must clone them because
// iterators reuse backing storage).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Key is a comparable composite key built from a row prefix, usable as a Go
// map key for hash joins and aggregation.
type Key struct {
	s string
}

// MakeKey encodes the given values into a composite key.
func MakeKey(vals ...Value) Key {
	var b []byte
	for _, v := range vals {
		b = appendKey(b, v)
	}
	return Key{s: string(b)}
}

// appendKey appends one value's key encoding.
func appendKey(b []byte, v Value) []byte {
	b = append(b, byte(v.T))
	switch v.T {
	case TypeInt, TypeDate:
		b = appendInt(b, v.I)
	case TypeFloat:
		b = strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case TypeStr:
		b = append(b, v.S...)
	}
	return append(b, 0)
}

// Hash is MakeKey(v).Hash() without building the key: the encoding goes
// through a buffer on the stack.
func (v Value) Hash() uint64 {
	var buf [64]byte
	return fnv1a(appendKey(buf[:0], v))
}

func appendInt(b []byte, v int64) []byte {
	return strconv.AppendInt(b, v, 36)
}

// Hash returns a 64-bit FNV-1a hash of the key, used by hash operators to
// derive simulated bucket addresses.
func (k Key) Hash() uint64 { return fnv1a(k.s) }

func fnv1a[S string | []byte](s S) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
