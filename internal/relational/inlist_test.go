package relational

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// inListDomain mixes integers with text that equals one of them ('1'),
// text that only looks like one ('01', ' 1') and NULL, so that the hashed
// IN-list must reproduce compareValues equality exactly.
var inListDomain = []Value{Null, Int(0), Int(1), Int(-1), Int(10), Int(101),
	Text("1"), Text("01"), Text(" 1"), Text("10"), Text("-1"), Text("a"), Text("")}

// linearIn is the item-by-item IN the executor runs on lists shorter than
// inListMin: NULL equals nothing.
func linearIn(v Value, items []Value, negate bool) Value {
	if v.IsNull() {
		return Bool(negate)
	}
	found := false
	for _, it := range items {
		if eq, known := valuesEqual(v, it); known && eq {
			found = true
			break
		}
	}
	return Bool(found != negate)
}

// TestInListSetMatchesLinear: random IN and NOT IN lists of 1 to 12
// Literal and Param items over inListDomain — 7, 8 and 9 items every
// round, either side of inListMin — answer through the per-statement set
// exactly as the item-by-item comparison does, for every operand,
// including NULL operands and NULL items.
func TestInListSetMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	db := NewDB()
	for round := 0; round < 400; round++ {
		n := []int{7, 8, 9, 1 + rng.Intn(12)}[round%4]
		items := make([]Value, n)
		list := make([]Expr, n)
		var args []Value
		for i := range items {
			items[i] = inListDomain[rng.Intn(len(inListDomain))]
			if rng.Intn(2) == 0 {
				list[i] = &Literal{Value: items[i]}
			} else {
				list[i] = &Param{Index: len(args)}
				args = append(args, items[i])
			}
		}
		for _, negate := range []bool{false, true} {
			in := &InExpr{X: &Param{Index: len(args)}, List: list, Negate: negate}
			env := &execEnv{}
			ev := newEval(db, env)
			for _, v := range inListDomain {
				ev.args = append(args[:len(args):len(args)], v)
				got, err := ev.eval(in, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := linearIn(v, items, negate); got != want {
					t.Fatalf("%v IN %v (negate %v) = %v, want %v", v, items, negate, got, want)
				}
			}
			if hashed := ev.inLists[in] != nil; hashed != (n >= inListMin) {
				t.Fatalf("%d items: hashed %v", n, hashed)
			}
		}
	}
}

// TestInListSQLMatchesOrChain: the same lists through SQL — literal and
// `?` items, on an unindexed column (full scan) and on the hash-indexed id
// (InProbe, then the same membership check on every probed row) — select
// the rows the equivalent chain of `=` comparisons selects.
func TestInListSQLMatchesOrChain(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER, v VARCHAR(8), w INTEGER)`)
	// v takes every domain value, w its NULL and integers.
	for i, v := range inListDomain {
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?)`, Int(int64(i)), v, inListDomain[i%6]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 150; round++ {
		n := []int{7, 8, 9, 1 + rng.Intn(12)}[round%4]
		col := []string{"v", "w", "id"}[rng.Intn(3)]
		var items, eqs []string
		var args []Value
		for range n {
			v := inListDomain[rng.Intn(len(inListDomain))]
			if col == "id" && rng.Intn(2) == 0 {
				v = Int(int64(rng.Intn(len(inListDomain) + 2)))
			}
			item := FormatValue(v)
			// The lexer reads -1 as a unary minus, which is not a constant
			// item; such values go in as arguments.
			if k, ok := v.Int(); ok && k < 0 || rng.Intn(3) == 0 {
				item = "?"
				args = append(args, v)
			}
			items = append(items, item)
			eqs = append(eqs, fmt.Sprintf("%s = %s", col, item))
		}
		// NOT IN over a NULL operand selects the row (IN answers false for
		// it, negated), and so does NOT of a chain of `=` on NULL.
		for _, neg := range []string{"", "NOT "} {
			in := fmt.Sprintf("SELECT id FROM t WHERE %s %sIN (%s) ORDER BY id", col, neg, strings.Join(items, ", "))
			or := fmt.Sprintf("SELECT id FROM t WHERE %s(%s) ORDER BY id", neg, strings.Join(eqs, " OR "))
			got, err := db.Query(in, args...)
			if err != nil {
				t.Fatalf("%s: %v", in, err)
			}
			want, err := db.Query(or, args...)
			if err != nil {
				t.Fatalf("%s: %v", or, err)
			}
			if g, w := rowsDump(got), rowsDump(want); g != w {
				t.Fatalf("%s %v\n got %s\nwant %s (%s)", in, args, g, w, or)
			}
		}
	}
}
