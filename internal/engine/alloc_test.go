package engine

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/outerunion"
	"repro/internal/xmltree"
)

// TestAllocPinReconstruct pins the allocations per reconstructed element of
// both readers — Store.Reconstruct and the Sorted Outer Union — on a fixed
// synthetic document. Both build elements from a compiled per-table shape
// over the row's values, taking nodes and child lists from one slab; a
// per-element node or child-list allocation, per-row map, string join or
// DTD walk coming back shows up here as one or more extra allocations per
// element.
func TestAllocPinReconstruct(t *testing.T) {
	doc := datagen.Fixed(datagen.FixedParams{ScalingFactor: 40, Depth: 4, Fanout: 4, Seed: 1})
	elements := 0
	xmltree.Walk(doc.Root, func(*xmltree.Element) bool { elements++; return true })
	s, err := Open(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt *xmltree.Document
	reconstruct := func() {
		if rebuilt, err = s.Reconstruct(); err != nil {
			t.Fatal(err)
		}
	}
	var subs []*outerunion.Subtree
	query := func() {
		if subs, err = outerunion.Query(s.DB, s.M, "e1", ""); err != nil {
			t.Fatal(err)
		}
	}
	// Both readers must rebuild the document before their cost means
	// anything.
	reconstruct()
	if rebuilt.String() != doc.String() {
		t.Fatal("Store.Reconstruct differs from the loaded document")
	}
	query()
	if len(subs) != 40 {
		t.Fatalf("outer union subtrees = %d, want 40", len(subs))
	}
	for i, e1 := range doc.Root.ChildElements() {
		if xmltree.Serialize(subs[i].Root) != xmltree.Serialize(e1) {
			t.Fatalf("outer union subtree %d differs from the loaded document", i)
		}
	}
	for _, pin := range []struct {
		name string
		run  func()
		max  float64
	}{
		// Measured 0.03 and 0.52 on go1.24: Store.Reconstruct reserves
		// every child list at its final size, while the outer union's
		// lists regrow as child-table rows arrive. Allocating each node
		// and list on its own cost 3.19 and 3.51, and building through a
		// per-row column map before that 5.85 and 7.18.
		{"Store.Reconstruct", reconstruct, 0.05},
		{"outerunion.Query", query, 0.55},
	} {
		got := testing.AllocsPerRun(5, pin.run) / float64(elements)
		t.Logf("%s: %.2f allocs per element (%d elements)", pin.name, got, elements)
		if got > pin.max {
			t.Errorf("%s: %.2f allocs per element, want <= %.2f", pin.name, got, pin.max)
		}
	}
}

// TestAllocPinStrategyCycle pins the bytes one cycle of the seven
// delete/insert strategies allocates — each store restored, then its bulk
// delete or copy of every e1 subtree — on the fixed document the bulk
// benchmark workload uses. That number sets how often the collector runs
// under bulk updates, and so where its cycles land against the reads
// between them. Measured 33.8 MB (134k allocations) on go1.24; with the
// undo log regrowing by copying and a binding built per UPDATE row it was
// 43.7 MB (197k).
func TestAllocPinStrategyCycle(t *testing.T) {
	doc := datagen.Fixed(datagen.FixedParams{ScalingFactor: 40, Depth: 4, Fanout: 4, Seed: 7})
	strategies := []Options{
		{Delete: PerTupleTrigger}, {Delete: PerStatementTrigger}, {Delete: CascadingDelete}, {Delete: ASRDelete},
		{Insert: TupleInsert}, {Insert: TableInsert}, {Insert: ASRInsert},
	}
	stores := make([]*Store, len(strategies))
	snaps := make([]*Snapshot, len(strategies))
	for k, o := range strategies {
		o.OrderColumn = true
		s, err := Open(doc, o)
		if err != nil {
			t.Fatal(err)
		}
		stores[k], snaps[k] = s, s.Snapshot()
	}
	cycle := func() {
		for k, s := range stores {
			if err := s.Restore(snaps[k]); err != nil {
				t.Fatal(err)
			}
			var n int
			var err error
			if k < 4 {
				n, err = s.DeleteSubtrees("e1", "")
			} else {
				n, err = s.CopySubtrees("e1", "", 1)
			}
			if err != nil || n != 40 {
				t.Fatalf("strategy %d: %d subtrees, %v", k, n, err)
			}
		}
	}
	cycle() // warm the plan caches and the value indexes
	const cycles = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / cycles / 1e6
	objs := (after.Mallocs - before.Mallocs) / cycles
	t.Logf("seven-strategy cycle: %.1f MB, %d allocations", mb, objs)
	if mb > 35 {
		t.Errorf("seven-strategy cycle allocates %.1f MB, want <= 35", mb)
	}
}
