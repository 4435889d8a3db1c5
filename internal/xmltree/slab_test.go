package xmltree

import (
	"fmt"
	"testing"
)

// TestSlabReserveOverflowKeepsNeighbour: child lists cut from one slab array
// sit side by side, so appending or inserting past an element's reserve
// must reallocate its list, never write into the next element's.
func TestSlabReserveOverflowKeepsNeighbour(t *testing.T) {
	var s Slab
	a := s.Element("a", 1)
	b := s.Element("b", 2)
	a.AppendChild(s.Text("a0"))
	b.AppendChild(s.Text("b0"))
	b.AppendChild(s.Element("b1", 0))
	want := Serialize(b)
	first := b.Children()[0]

	a.AppendChild(s.Element("a1", 0))
	a.InsertChildAt(0, s.Text("a-1"))
	if got := Serialize(b); got != want || b.Children()[0] != first {
		t.Fatalf("neighbour changed by appends past a's reserve: %s, want %s", got, want)
	}
	if got, want := Serialize(a), "<a>a-1a0<a1/></a>"; got != want {
		t.Fatalf("a = %s, want %s", got, want)
	}
	// An element reserved no children gets its list on first append.
	c := s.Element("c", 0)
	c.AppendChild(s.Text("c0"))
	if got := Serialize(b); got != want {
		t.Fatalf("neighbour changed by c's append: %s, want %s", got, want)
	}
}

// TestSlabNodesBehaveLikeNew applies the same mutations — positional
// insert, detach and re-attach, InsertBefore/After, Clone of a subtree and
// mutation of the clone — to a tree built by NewElement/NewText and to the
// same tree built from a slab with exact reserves, and requires identical
// serializations and parent links after every step.
func TestSlabNodesBehaveLikeNew(t *testing.T) {
	type tree struct {
		root, x, y *Element
	}
	build := func(elem func(string, int) *Element, text func(string) *Text) tree {
		root := elem("root", 3)
		x := elem("x", 2)
		x.AppendChild(text("x0"))
		x.AppendChild(elem("x1", 0))
		y := elem("y", 1)
		y.AppendChild(text("y0"))
		root.AppendChild(x)
		root.AppendChild(y)
		root.AppendChild(elem("z", 0))
		return tree{root, x, y}
	}
	plain := build(func(name string, _ int) *Element { return NewElement(name) }, NewText)
	var s Slab
	slab := build(s.Element, s.Text)

	steps := []struct {
		name string
		do   func(tr tree) error
	}{
		{"insert at front", func(tr tree) error { tr.root.InsertChildAt(0, NewText("head")); return nil }},
		{"insert in the middle", func(tr tree) error { tr.x.InsertChildAt(1, NewElement("mid")); return nil }},
		{"detach", func(tr tree) error {
			if !tr.root.RemoveChild(tr.y) {
				return fmt.Errorf("y not removed")
			}
			return nil
		}},
		{"re-attach detached", func(tr tree) error { tr.x.AppendChild(tr.y); return nil }},
		{"insert before", func(tr tree) error { return tr.x.InsertBefore(tr.y, NewText("pre")) }},
		{"insert after", func(tr tree) error { return tr.root.InsertAfter(tr.x, NewElement("after")) }},
		{"clone and mutate the clone", func(tr tree) error {
			cp := tr.x.Clone()
			cp.AppendChild(NewText("clone-only"))
			cp.Children()[0].(*Text).Data = "CHANGED"
			tr.root.AppendChild(cp)
			return nil
		}},
		{"remove a text", func(tr tree) error {
			if !tr.x.RemoveChild(tr.x.Children()[0]) {
				return fmt.Errorf("text not removed")
			}
			return nil
		}},
	}
	for _, st := range steps {
		for _, tr := range []tree{plain, slab} {
			if err := st.do(tr); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		if got, want := Serialize(slab.root), Serialize(plain.root); got != want {
			t.Fatalf("%s: slab tree\n%s\nwant\n%s", st.name, got, want)
		}
		Walk(slab.root, func(e *Element) bool {
			for _, c := range e.Children() {
				if c.Parent() != e {
					t.Fatalf("%s: a child of <%s> has parent %v", st.name, e.Name, c.Parent())
				}
			}
			return true
		})
	}
	if slab.y.Parent() != slab.x {
		t.Fatalf("re-attached y has parent <%s>, want <x>", slab.y.Parent().Name)
	}
}

// TestSlabChunksStartSmall: the first node costs a chunk of slabChunkMin,
// later chunks double up to slabChunkMax, and a child list larger than a
// chunk still gets exactly its reserve.
func TestSlabChunksStartSmall(t *testing.T) {
	var s Slab
	s.Element("one", 1)
	if got := cap(s.elems.free) + 1; got != slabChunkMin {
		t.Fatalf("first element chunk holds %d, want %d", got, slabChunkMin)
	}
	if got := cap(s.nodes.free) + 1; got != slabChunkMin {
		t.Fatalf("first child-list chunk holds %d, want %d", got, slabChunkMin)
	}
	for i := 0; i < 4*slabChunkMax; i++ {
		s.Text("t")
	}
	if s.texts.size != slabChunkMax {
		t.Fatalf("text chunks grew to %d, want %d", s.texts.size, slabChunkMax)
	}
	big := s.Element("big", 3*slabChunkMax)
	if got := cap(big.Children()); got != 3*slabChunkMax {
		t.Fatalf("oversized reserve has capacity %d, want %d", got, 3*slabChunkMax)
	}
}
