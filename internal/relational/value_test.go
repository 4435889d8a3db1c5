package relational

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/wal"
)

// Reference implementations of the pre-unboxing value semantics, written
// over `any` exactly as value.go had them when Value was an interface. The
// property tests below drive the tagged implementation against these across
// generated values, so the representation rewrite cannot silently shift
// NULL ordering, mixed int/string comparison, or coercion behaviour.

func oldCompare(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	ai, aok := a.(int64)
	bi, bok := b.(int64)
	if aok && bok {
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		default:
			return 0
		}
	}
	as := oldValueString(a)
	bs := oldValueString(b)
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

func oldValueString(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	default:
		return fmt.Sprint(x)
	}
}

func oldCoerce(v any, t Type) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case Integer:
		switch x := v.(type) {
		case int64:
			return x, nil
		case string:
			n, err := strconv.ParseInt(x, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cannot store %q in INTEGER column", x)
			}
			return n, nil
		}
	case Varchar:
		switch x := v.(type) {
		case string:
			return x, nil
		case int64:
			return strconv.FormatInt(x, 10), nil
		}
	}
	return nil, fmt.Errorf("cannot store %T in %s column", v, t)
}

// toOld maps a tagged Value onto the old interface domain.
func toOld(v Value) any {
	switch v.Kind() {
	case KindNull:
		return nil
	case KindInt:
		return v.MustInt()
	default:
		return v.MustText()
	}
}

// genValue draws from a distribution rich in the cases that matter: NULL,
// boundary ints, strings that are (canonical and non-canonical) renderings
// of ints, quotes, and plain text.
func genValue(r *rand.Rand) Value {
	switch r.Intn(10) {
	case 0:
		return Null
	case 1:
		return Int(int64(r.Intn(5)))
	case 2:
		return Int(r.Int63() - r.Int63())
	case 3:
		return Int(math.MinInt64)
	case 4:
		return Int(math.MaxInt64)
	case 5:
		return Text(strconv.FormatInt(int64(r.Intn(5)), 10)) // canonical int text
	case 6:
		return Text("0" + strconv.FormatInt(int64(r.Intn(100)), 10)) // leading zero
	case 7:
		return Text("")
	case 8:
		return Text("it's ''quoted''")
	default:
		return Text(fmt.Sprintf("s%d", r.Intn(10)))
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}

// TestCompareMatchesOldSemantics: compareValues over the tagged struct
// agrees with the interface-era comparison on every generated pair —
// NULL-first ordering, numeric int comparison, lexical strings, and mixed
// int/string via string forms.
func TestCompareMatchesOldSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		a, b := genValue(r), genValue(r)
		got := sign(compareValues(a, b))
		want := sign(oldCompare(toOld(a), toOld(b)))
		if got != want {
			t.Fatalf("compareValues(%#v, %#v) = %d, old = %d", a, b, got, want)
		}
		if got != -sign(compareValues(b, a)) {
			t.Fatalf("compareValues not antisymmetric on (%#v, %#v)", a, b)
		}
	}
}

// TestCoerceMatchesOldSemantics: coercion into both column types agrees
// with the old behaviour, including int→VARCHAR rendering and text→INTEGER
// parse failures.
func TestCoerceMatchesOldSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		v := genValue(r)
		for _, ty := range []Type{Integer, Varchar} {
			got, gotErr := coerce(v, ty)
			want, wantErr := oldCoerce(toOld(v), ty)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("coerce(%#v, %s) err = %v, old err = %v", v, ty, gotErr, wantErr)
			}
			if gotErr == nil {
				if toOld(got) != want {
					t.Fatalf("coerce(%#v, %s) = %#v, old = %#v", v, ty, got, want)
				}
			}
		}
	}
}

// TestJoinKeyMatchesEquality: the hash-join key normalization must agree
// exactly with compareValues equality — two non-NULL values share a join
// key iff the engine's SQL comparison calls them equal. This is the
// property that lets the transient hash join key on the comparable struct
// instead of formatted strings.
func TestJoinKeyMatchesEquality(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 200000; i++ {
		a, b := genValue(r), genValue(r)
		if a.IsNull() || b.IsNull() {
			continue // NULL never enters a hash table
		}
		keyEq := a.joinKey() == b.joinKey()
		cmpEq := compareValues(a, b) == 0
		if keyEq != cmpEq {
			t.Fatalf("joinKey equality %v but compare equality %v for %#v vs %#v", keyEq, cmpEq, a, b)
		}
	}
}

// TestCanonInt: canonInt accepts exactly strconv.FormatInt's output.
func TestCanonInt(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 7, 10, -10, 42, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1} {
		s := strconv.FormatInt(n, 10)
		got, ok := canonInt(s)
		if !ok || got != n {
			t.Errorf("canonInt(%q) = %d, %v; want %d, true", s, got, ok, n)
		}
	}
	for _, s := range []string{"", "-", "+1", "01", "-01", "-0", "1x", "x", " 1", "1 ", "9223372036854775808", "-9223372036854775809", "99999999999999999999"} {
		if _, ok := canonInt(s); ok {
			t.Errorf("canonInt(%q) accepted non-canonical input", s)
		}
	}
}

// TestRowKeyInjective: distinct rows get distinct encodings (DISTINCT
// correctness), equal rows get equal encodings.
func TestRowKeyInjective(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 50000; i++ {
		a := []Value{genValue(r), genValue(r)}
		b := []Value{genValue(r), genValue(r)}
		keyEq := string(appendRowKey(nil, a)) == string(appendRowKey(nil, b))
		valEq := a[0] == b[0] && a[1] == b[1]
		if keyEq != valEq {
			t.Fatalf("row-key equality %v but value equality %v for %#v vs %#v", keyEq, valEq, a, b)
		}
	}
}

// TestValueWalRoundTrip: every value kind survives the WAL's tagged
// encoding bit-exactly, including boundary integers and awkward strings.
func TestValueWalRoundTrip(t *testing.T) {
	cases := []Value{
		Null,
		Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Text(""), Text("x"), Text("it's ''quoted''"), Text("line\nbreak\x00nul"), Text("héllo 世界"),
	}
	var b []byte
	for _, v := range cases {
		var err error
		if b, err = wal.AppendValue(b, walVal(v)); err != nil {
			t.Fatalf("AppendValue(%#v): %v", v, err)
		}
	}
	for _, want := range cases {
		wv, rest, err := wal.ReadValue(b)
		if err != nil {
			t.Fatalf("ReadValue before %#v: %v", want, err)
		}
		got, err := fromWalVal(wv)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip = %#v, want %#v", got, want)
		}
		b = rest
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
	// The closed-domain guarantee: a corrupt kind must error, not encode.
	if _, err := wal.AppendValue(nil, wal.Value{Kind: 9}); err == nil {
		t.Fatal("AppendValue accepted an unknown kind")
	}
}

// TestSnapshotValueRoundTrip: every value kind — NULL, both int64
// extremes, the empty string and a quoted string — survives the page-record
// codec, both directly and through a checkpoint and a reopen that reads the
// rows back from the page files. The reopened database's snapshot holds
// identical rows, tombstone hole included.
func TestSnapshotValueRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, pagedOpts())
	db.MustExec(`CREATE TABLE t (id INTEGER, a INTEGER, b VARCHAR(64))`)
	db.MustExec(`INSERT INTO t VALUES (1, NULL, NULL)`)
	// Boundary ints go through prepared args: the SQL lexer cannot spell
	// MinInt64 (the sign is a separate token and the magnitude overflows).
	const ins = `INSERT INTO t VALUES (?, ?, ?)`
	if _, err := db.Exec(ins, Int(2), Int(math.MaxInt64), Text("plain")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ins, Int(3), Int(math.MinInt64), Text("")); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO t VALUES (4, 0, 'it''s quoted')`)
	db.MustExec(`DELETE FROM t WHERE id = 2`) // leave a tombstone hole
	snap := db.Snapshot()

	// The record codec alone: each live row decodes to identical values,
	// and encodedRowSize predicts the record length exactly.
	for i, row := range snap.tables["t"] {
		if row == nil {
			continue
		}
		enc, err := encodeRowInto(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		if n := encodedRowSize(row); n != len(enc) {
			t.Fatalf("row %d: encodedRowSize %d, record is %d bytes", i, n, len(enc))
		}
		dec, err := decodeRowBytes(enc)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if len(dec) != len(row) {
			t.Fatalf("row %d decoded %d columns, want %d", i, len(dec), len(row))
		}
		for c := range row {
			if dec[c] != row[c] {
				t.Fatalf("row %d col %d = %#v, want %#v", i, c, dec[c], row[c])
			}
		}
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec := mustOpenDB(t, dir, pagedOpts())
	defer rec.Close()
	if n := rec.RecoveredCommits(); n != 0 {
		t.Fatalf("reopen replayed %d commits; the rows must come from the pages", n)
	}
	got, want := rec.Snapshot().tables["t"], snap.tables["t"]
	if len(got) != len(want) {
		t.Fatalf("shape mismatch: %d/%d rows", len(got), len(want))
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("row %d tombstone mismatch", i)
		}
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("row %d col %d = %#v, want %#v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestBindBoundary: the any→Value boundary accepts exactly the canonical
// domain and rejects everything else with an error (never a lossy render).
func TestBindBoundary(t *testing.T) {
	for _, tc := range []struct {
		in   any
		want Value
	}{
		{nil, Null},
		{int64(7), Int(7)},
		{int(7), Int(7)},
		{"x", Text("x")},
		{Int(3), Int(3)},
	} {
		got, err := Bind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("Bind(%#v) = %#v, %v; want %#v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []any{3.14, true, []byte("b"), struct{}{}} {
		if _, err := Bind(bad); err == nil {
			t.Errorf("Bind(%#v) accepted a non-canonical type", bad)
		}
	}
}

// TestMixedEqualityConsistentAcrossAccessPaths: an equality on a mixed
// int/text pair must select the same rows whether it runs as a heap scan,
// a hash-index probe, or an IN membership check (list or subquery). The
// joinKey normalization on hash buckets and IN-sets is what aligns them;
// before it, creating an index could change a query's answer.
func TestMixedEqualityConsistentAcrossAccessPaths(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (k INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (1)`)
	db.MustExec(`CREATE TABLE s (v VARCHAR(8))`)
	db.MustExec(`INSERT INTO s VALUES ('1'), ('01'), ('x')`)

	count := func(q string) int {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return len(rows.Data)
	}
	scan := count(`SELECT k FROM t WHERE k = '1'`)
	if scan != 1 {
		t.Fatalf("scan path: k = '1' matched %d rows, want 1 (compareValues mixed equality)", scan)
	}
	db.MustExec(`CREATE INDEX ik ON t (k)`)
	if got := count(`SELECT k FROM t WHERE k = '1'`); got != scan {
		t.Errorf("indexed path: k = '1' matched %d rows, scan matched %d — index changed the answer", got, scan)
	}
	// '01' is not canonical integer text: no path may match it against 1.
	if got := count(`SELECT k FROM t WHERE k = '01'`); got != 0 {
		t.Errorf("indexed path: k = '01' matched %d rows, want 0", got)
	}
	list := count(`SELECT k FROM t WHERE k IN ('1', 'x')`)
	sub := count(`SELECT k FROM t WHERE k IN (SELECT v FROM s)`)
	if list != 1 || sub != list {
		t.Errorf("IN paths disagree: list=%d subquery=%d, want both 1", list, sub)
	}

	// TEXT = TEXT: the same equalities must answer identically whether they
	// run as a scan, an indexed probe, a hash join or an IN-subquery, with
	// the canonical-int fold keeping '1' aligned with INTEGER 1.
	db2 := NewDB()
	db2.MustExec(`CREATE TABLE a (v VARCHAR(8))`)
	db2.MustExec(`INSERT INTO a VALUES ('1'), ('x'), ('y')`)
	db2.MustExec(`CREATE TABLE b (v VARCHAR(8))`)
	db2.MustExec(`INSERT INTO b VALUES ('x'), ('z'), ('1')`)
	count2 := func(q string) int {
		rows, err := db2.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return len(rows.Data)
	}
	if got := count2(`SELECT v FROM a WHERE v = 'x'`); got != 1 {
		t.Errorf("text scan: got %d rows, want 1", got)
	}
	db2.MustExec(`CREATE INDEX ia ON a (v)`)
	if got := count2(`SELECT v FROM a WHERE v = 'x'`); got != 1 {
		t.Errorf("text indexed: got %d rows, want 1", got)
	}
	if got := count2(`SELECT a.v FROM a, b WHERE a.v = b.v`); got != 2 {
		t.Errorf("text join: got %d rows, want 2 ('1' and 'x')", got)
	}
	if got := count2(`SELECT v FROM a WHERE v IN (SELECT v FROM b)`); got != 2 {
		t.Errorf("text IN-subquery: got %d rows, want 2", got)
	}
	// Mixed int/text: '1' in a TEXT column must still equal INTEGER 1 and
	// never equal '01'.
	db2.MustExec(`CREATE TABLE n (k INTEGER)`)
	db2.MustExec(`INSERT INTO n VALUES (1)`)
	if got := count2(`SELECT n.k FROM n, a WHERE n.k = a.v`); got != 1 {
		t.Errorf("mixed join: got %d rows, want 1", got)
	}
}

// FuzzCompareValues drives arbitrary int/string pairs through the new and
// old comparison in all kind combinations.
func FuzzCompareValues(f *testing.F) {
	f.Add(int64(1), "1", uint8(0), uint8(2))
	f.Add(int64(-5), "-5", uint8(1), uint8(2))
	f.Add(int64(0), "", uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, n int64, s string, ka, kb uint8) {
		mk := func(k uint8) Value {
			switch k % 3 {
			case 0:
				return Null
			case 1:
				return Int(n)
			default:
				return Text(s)
			}
		}
		a, b := mk(ka), mk(kb)
		if sign(compareValues(a, b)) != sign(oldCompare(toOld(a), toOld(b))) {
			t.Fatalf("compare mismatch for %#v vs %#v", a, b)
		}
		if !a.IsNull() && !b.IsNull() {
			if (a.joinKey() == b.joinKey()) != (compareValues(a, b) == 0) {
				t.Fatalf("joinKey/compare mismatch for %#v vs %#v", a, b)
			}
		}
	})
}
