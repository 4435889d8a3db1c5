package xmltree

// Slab hands out Elements, Texts and child lists from shared arrays, so a
// reader that builds a whole document — the relational reconstructors — pays
// a few allocations per chunk instead of several per element. The zero value
// is ready to use. Chunks start small and double up to slabChunkMax entries,
// so building one element costs one small array, not a large one.
//
// Nodes from a slab are ordinary nodes: every mutator, Clone and detach
// works on them as on NewElement nodes. A child list is reserved at exactly
// the capacity asked for, so appending past it reallocates that element's
// list and never overwrites a neighbour's. The cost is lifetime: a node kept
// after the rest of its document is dropped keeps its whole chunk alive.
type Slab struct {
	elems slabChunk[Element]
	texts slabChunk[Text]
	nodes slabChunk[Node]
}

const (
	slabChunkMin = 8
	slabChunkMax = 512
)

// slabChunk is one kind's current array: take cuts the next n entries off
// free, allocating a new array (at least n long) when free runs short.
type slabChunk[T any] struct {
	free []T
	size int
}

func (c *slabChunk[T]) take(n int) []T {
	if len(c.free) < n {
		c.size = min(max(2*c.size, slabChunkMin), slabChunkMax)
		c.free = make([]T, max(c.size, n))
	}
	out := c.free[:n:n]
	c.free = c.free[n:]
	return out
}

// Element returns a detached element named name whose child list has room
// for children nodes before it reallocates.
func (s *Slab) Element(name string, children int) *Element {
	e := &s.elems.take(1)[0]
	e.Name = name
	if children > 0 {
		e.children = s.nodes.take(children)[:0]
	}
	return e
}

// Text returns a detached PCDATA node.
func (s *Slab) Text(data string) *Text {
	t := &s.texts.take(1)[0]
	t.Data = data
	return t
}
