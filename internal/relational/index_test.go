package relational

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestRidMapMatchesModel drives a ridMap with random adds and removes —
// runs in ascending and descending rowid order, as DELETE and rollback
// apply them, and scattered ones — over a few keys, integer and text,
// against a sorted-set model. After every operation each key must list
// exactly the model's rowids in ascending order, and the layout checks of
// ridMapContents must hold.
func TestRidMapMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	keys := []Value{Int(1), Text("1"), Int(-7), Text("01"), Text("x"), Int(0)}
	var m ridMap
	model := map[Value][]int{}
	norm := func(k Value) Value { return k.joinKey() }
	apply := func(add bool, k Value, rid int) {
		s := model[norm(k)]
		i, found := slices.BinarySearch(s, rid)
		switch {
		case add && !found:
			s = slices.Insert(s, i, rid)
		case !add && found:
			s = slices.Delete(s, i, i+1)
		}
		if len(s) == 0 {
			delete(model, norm(k))
		} else {
			model[norm(k)] = s
		}
		if add {
			m.add(k, rid)
		} else {
			m.remove(k, rid)
		}
	}
	for step := 0; step < 3000; step++ {
		k := keys[r.Intn(len(keys))]
		add := r.Intn(5) < 3
		n := 1 + r.Intn(40)
		switch start := r.Intn(300); r.Intn(3) {
		case 0:
			for i := 0; i < n; i++ {
				apply(add, k, start+i*(1+r.Intn(3)))
			}
		case 1:
			for i := 0; i < n; i++ {
				apply(add, k, max(0, start-i*(1+r.Intn(3))))
			}
		default:
			for i := 0; i < n; i++ {
				apply(add, k, r.Intn(300))
			}
		}
		got, err := ridMapContents(&m)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(model) {
			t.Fatalf("step %d: map holds %v, model %v", step, got, model)
		}
		for _, k := range keys {
			var one [1]int
			if p, want := appendLive(nil, m.get(k, &one)), model[norm(k)]; fmt.Sprint(p) != fmt.Sprint(want) {
				t.Fatalf("step %d: probe %v lists %v, want %v", step, k, p, want)
			}
		}
	}
}
