package engine

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/outerunion"
	"repro/internal/xmltree"
)

// TestAllocPinReconstruct pins the allocations per reconstructed element of
// both readers — Store.Reconstruct and the Sorted Outer Union — on a fixed
// synthetic document. Both build elements from a compiled per-table shape
// over the row's values; a per-row map, per-element string join or DTD walk
// coming back shows up here as several extra allocations per element.
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
		// Measured 3.19 and 3.51 on go1.24; building through a per-row
		// column map cost 5.85 and 7.18.
		{"Store.Reconstruct", reconstruct, 3.4},
		{"outerunion.Query", query, 3.7},
	} {
		got := testing.AllocsPerRun(5, pin.run) / float64(elements)
		t.Logf("%s: %.2f allocs per element (%d elements)", pin.name, got, elements)
		if got > pin.max {
			t.Errorf("%s: %.2f allocs per element, want <= %.2f", pin.name, got, pin.max)
		}
	}
}
