// Package relational implements the embedded relational database substrate
// the reproduction uses in place of IBM DB2 UDB 7.1 (the paper's backend).
//
// It provides heap tables with hash indexes, per-tuple and per-statement
// triggers, and a SQL subset sufficient for every statement the XML update
// middleware generates: CREATE TABLE/INDEX/TRIGGER, INSERT (VALUES and
// SELECT forms), DELETE, UPDATE, and SELECT with multi-table joins, WITH
// common table expressions, UNION ALL, ORDER BY, IN/NOT IN subqueries, and
// MIN/MAX/COUNT aggregates.
//
// The engine models the cost structure the paper measures: statement
// dispatch overhead, index lookups versus full scans, and trigger firing
// granularity. Counters expose statements executed and rows scanned so
// benchmarks can report the paper's explanatory variables.
package relational

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// Kind tags a Value's type.
type Kind uint8

// Value kinds. The zero kind is NULL, so the zero Value is SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindText
)

// Value is a SQL value: an unboxed tagged union of NULL, int64, and string.
// The struct is comparable (it keys the hash indexes directly) and carries
// no pointers beyond the string header, so rows of Values hold integers
// inline instead of one heap-boxed interface per column — the scan, probe,
// and join loops touch values without allocating.
//
// Construct Values with Int, Text, or the zero value / Null for NULL; the
// fields are unexported so every Value in the system is canonical (unused
// fields zero), which is what makes == and map-key equality coincide with
// same-kind SQL equality.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Null is the SQL NULL value (the Value zero value).
var Null Value

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Text returns a VARCHAR value.
func Text(s string) Value { return Value{kind: KindText, s: s} }

// Bool returns integer 1 or 0, the engine's boolean encoding.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindInt, i: 1}
	}
	return Value{kind: KindInt}
}

// Bind converts a caller-supplied Go value to the canonical Value domain.
// Only nil, Value, int64, int, and string are accepted; anything else is
// rejected with an explicit error — an unknown type must fail at the API
// boundary rather than be formatted lossily into, say, an unreplayable
// redo-log literal.
func Bind(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null, nil
	case Value:
		return x, nil
	case int64:
		return Int(x), nil
	case int:
		return Int(int64(x)), nil
	case string:
		return Text(x), nil
	default:
		return Null, fmt.Errorf("relational: unsupported value type %T (want int64, int, string, or nil)", v)
	}
}

// Kind returns the value's type tag.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload; ok is false for non-INTEGER values.
func (v Value) Int() (int64, bool) { return v.i, v.kind == KindInt }

// Text returns the string payload; ok is false for non-VARCHAR values.
func (v Value) Text() (string, bool) { return v.s, v.kind == KindText }

// MustInt returns the integer payload, panicking on any other kind — the
// unboxed analogue of a bare .(int64) assertion for values whose type the
// schema guarantees.
func (v Value) MustInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relational: MustInt on %s value", v.kind))
	}
	return v.i
}

// MustText returns the string payload, panicking on any other kind.
func (v Value) MustText() string {
	if v.kind != KindText {
		panic(fmt.Sprintf("relational: MustText on %s value", v.kind))
	}
	return v.s
}

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindText:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Type is a column type.
type Type int

// Column types. VARCHAR length limits are accepted syntactically but not
// enforced, matching the paper's usage.
const (
	Integer Type = iota
	Varchar
)

func (t Type) String() string {
	switch t {
	case Integer:
		return "INTEGER"
	case Varchar:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// coerce converts v to the column type, returning an error for impossible
// conversions. NULL passes through any type.
func coerce(v Value, t Type) (Value, error) {
	if v.kind == KindNull {
		return Null, nil
	}
	switch t {
	case Integer:
		switch v.kind {
		case KindInt:
			return v, nil
		case KindText:
			n, err := strconv.ParseInt(v.s, 10, 64)
			if err != nil {
				return Null, fmt.Errorf("cannot store %q in INTEGER column", v.s)
			}
			return Int(n), nil
		}
	case Varchar:
		switch v.kind {
		case KindText:
			return v, nil
		case KindInt:
			return Text(strconv.FormatInt(v.i, 10)), nil
		}
	}
	return Null, fmt.Errorf("cannot store %s value in %s column", v.kind, t)
}

// compareValues orders two values: NULL sorts before everything (so Sorted
// Outer Union streams place parents, whose child-id columns are NULL, ahead
// of their children); integers compare numerically; strings lexically.
// Mixed int/string compares the string forms — rendered into a stack buffer,
// so the hot comparison paths never allocate.
func compareValues(a, b Value) int {
	switch {
	case a.kind == KindNull && b.kind == KindNull:
		return 0
	case a.kind == KindNull:
		return -1
	case b.kind == KindNull:
		return 1
	}
	if a.kind == KindInt && b.kind == KindInt {
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	}
	if a.kind == KindText && b.kind == KindText {
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		default:
			return 0
		}
	}
	// Mixed: exactly one side is an integer.
	var buf [20]byte
	if a.kind == KindInt {
		return compareBytesString(strconv.AppendInt(buf[:0], a.i, 10), b.s)
	}
	return -compareBytesString(strconv.AppendInt(buf[:0], b.i, 10), a.s)
}

// compareBytesString is bytes.Compare(b, []byte(s)) without the conversion.
func compareBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	default:
		return 0
	}
}

// valuesEqual implements SQL equality: NULL equals nothing (including NULL).
func valuesEqual(a, b Value) (bool, bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return false, false // unknown
	}
	return compareValues(a, b) == 0, true
}

// joinKey normalizes a value for transient hash-join keying so that map
// equality coincides with compareValues equality: a VARCHAR holding the
// canonical decimal rendering of an integer maps to that integer (1 joins
// '1', matching the mixed compare of their string forms), while
// non-canonical text ('01', '+1', 'abc') stays text. The normalization is
// a pure field rewrite — probing allocates nothing.
func (v Value) joinKey() Value {
	if v.kind == KindText {
		if n, ok := canonInt(v.s); ok {
			return Value{kind: KindInt, i: n}
		}
	}
	return v
}

// canonInt parses s as a canonically formatted int64 — exactly the output
// of strconv.FormatInt: optional '-', no leading zeros (except "0"), no
// '+', no "-0", within range. ok is false for anything else.
func canonInt(s string) (int64, bool) {
	if s == "" {
		return 0, false
	}
	neg := false
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
		if len(s) == 1 {
			return 0, false
		}
	}
	if s[i] == '0' && len(s)-i > 1 {
		return 0, false // leading zero
	}
	var n uint64
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (1<<64-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		if n == 0 || n > 1<<63 {
			return 0, false // "-0" is not canonical; below -2^63 overflows
		}
		return -int64(n), true // n == 1<<63 wraps to MinInt64, which negates to itself
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

// appendValueKey appends a self-delimiting byte encoding of v to b. The
// encoding distinguishes kinds and is injective, so byte equality is Value
// equality — DISTINCT and row-key deduplication build keys by appending
// into a reused buffer instead of formatting strings per row.
func appendValueKey(b []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(b, byte(KindNull))
	case KindInt:
		b = append(b, byte(KindInt))
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], v.i)
		return append(b, tmp[:n]...)
	default:
		b = append(b, byte(KindText))
		b = binary.AppendUvarint(b, uint64(len(v.s)))
		return append(b, v.s...)
	}
}

// appendRowKey appends the concatenated value keys of a row. Length
// prefixes make each element self-delimiting, so rows collide only when
// they are column-for-column equal.
func appendRowKey(b []byte, row []Value) []byte {
	for _, v := range row {
		b = appendValueKey(b, v)
	}
	return b
}

// String renders the bare form fmt verbs print — the same text the old
// interface representation produced ("5", "abc", "NULL") — so %v/%s
// formatting of a Value never leaks struct internals.
func (v Value) String() string { return valueString(v) }

// valueString renders a value for error messages and display: the bare
// string form (no quotes), "NULL" for NULL.
func valueString(v Value) string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return v.s
	}
}

// FormatValue renders a value as a replayable SQL literal. The Value domain
// is closed — every kind a constructor can produce has a quoted, lossless
// rendering — so unlike the old any-typed representation there is no
// fmt.Sprint fallback that could smuggle an unparsable literal into the
// redo log. A corrupted kind (impossible through the public API) panics
// rather than emitting garbage.
func FormatValue(v Value) string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindText:
		return "'" + escapeSQLString(v.s) + "'"
	default:
		panic(fmt.Sprintf("relational: FormatValue on corrupt kind %d", uint8(v.kind)))
	}
}

func escapeSQLString(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}
