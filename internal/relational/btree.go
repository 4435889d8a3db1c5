package relational

import "sort"

// An in-memory B+tree over composite-value keys, the ordered counterpart of
// the hash indexes in index.go. Interior nodes route, leaves hold entries and
// are doubly linked, so range scans are a descent plus a leaf walk in either
// direction. Keys order by compareValues column-wise with the rowid as the
// final tiebreak, which makes every key unique and — because rowids are
// assigned in insertion order — makes equal-key runs stream in the same
// order a stable sort of the heap would produce. When sort elision walks an
// index whose key columns are exactly the ORDER BY keys, the elided stream
// is therefore row-for-row identical to the sorted one; when the ORDER BY
// consumes only a prefix of the key, rows tied on the prefix stream in
// trailing-key order instead of heap order — a different (still valid)
// resolution of ties the ORDER BY leaves unspecified.

// btreeMaxKeys bounds the entries per node; nodes split at the bound. 64
// keeps the tree shallow for document-scale tables while splits stay cheap.
const btreeMaxKeys = 64

// btreeMaxCols bounds an ordered index's key arity. Key values live inline
// in the entry — no per-entry slice — which halves the live pointers the
// collector traces per index; every index the system declares ((id),
// (parentId, id), (parentId, pos)) fits.
const btreeMaxCols = 2

// bkey is one index entry: the indexed column values plus the owning rowid.
// Unused trailing value slots stay NULL uniformly across an index, so
// comparisons can always consider both (NULL == NULL). Values are unboxed
// tagged structs, so a bkey is one flat block of memory — building one from
// a row is plain field copies, no per-column boxing.
type bkey struct {
	vals [btreeMaxCols]Value
	rid  int
}

// compareBKeys orders entries column-wise (NULLs first, matching ORDER BY
// semantics) with the rowid as tiebreak.
func compareBKeys(a, b bkey) int {
	for i := 0; i < btreeMaxCols; i++ {
		if c := compareValues(a.vals[i], b.vals[i]); c != 0 {
			return c
		}
	}
	switch {
	case a.rid < b.rid:
		return -1
	case a.rid > b.rid:
		return 1
	default:
		return 0
	}
}

// comparePrefix orders an entry against a partial key covering only the
// leading columns; the entry's remaining columns and rowid are ignored.
func comparePrefix(k bkey, prefix []Value) int {
	for i, pv := range prefix {
		if c := compareValues(k.vals[i], pv); c != 0 {
			return c
		}
	}
	return 0
}

type bleaf struct {
	keys       []bkey
	next, prev *bleaf
}

type binner struct {
	// seps[i] is the smallest key reachable under kids[i+1]; kids has one
	// more element than seps.
	seps []bkey
	kids []bnode
}

type bnode interface{ isBNode() }

func (*bleaf) isBNode()  {}
func (*binner) isBNode() {}

type btree struct {
	root bnode
	// last points at the rightmost leaf for the ascending-insert fast path:
	// tuple ids (and per-parent positions) arrive mostly in key order, so
	// bulk loads and copies append without descending.
	last *bleaf
	size int
}

func newBTree() *btree {
	leaf := &bleaf{}
	return &btree{root: leaf, last: leaf}
}

// newBTreeFromSorted bulk-builds a tree from already-sorted entries, bottom
// up, over the entry array itself: leaves slice it with full slices, so an
// insert into a full leaf reallocates instead of overwriting its neighbour,
// and inner levels group their children. orderedIndex.rebuild is its one
// caller, and keeps the array for its next build.
func newBTreeFromSorted(entries []bkey) *btree {
	if len(entries) == 0 {
		return newBTree()
	}
	t := &btree{size: len(entries)}
	// Three-quarters fill leaves: room for later inserts before splitting.
	per := btreeMaxKeys * 3 / 4
	var leaves []*bleaf
	for i := 0; i < len(entries); i += per {
		j := i + per
		if j > len(entries) {
			j = len(entries)
		}
		leaf := &bleaf{keys: entries[i:j:j]}
		if n := len(leaves); n > 0 {
			leaves[n-1].next = leaf
			leaf.prev = leaves[n-1]
		}
		leaves = append(leaves, leaf)
	}
	t.last = leaves[len(leaves)-1]
	type child struct {
		node bnode
		min  bkey
	}
	level := make([]child, len(leaves))
	for i, leaf := range leaves {
		level[i] = child{node: leaf, min: leaf.keys[0]}
	}
	for len(level) > 1 {
		var up []child
		for i := 0; i < len(level); i += per {
			j := i + per
			if j > len(level) {
				j = len(level)
			}
			group := level[i:j]
			inner := &binner{
				seps: make([]bkey, 0, len(group)-1),
				kids: make([]bnode, 0, len(group)),
			}
			for gi, c := range group {
				if gi > 0 {
					inner.seps = append(inner.seps, c.min)
				}
				inner.kids = append(inner.kids, c.node)
			}
			up = append(up, child{node: inner, min: group[0].min})
		}
		level = up
	}
	t.root = level[0].node
	return t
}

// insert adds an entry. Duplicate (vals, rid) pairs cannot occur: the rowid
// uniquifies every key.
func (t *btree) insert(k bkey) {
	t.size++
	// Fast path: a strictly-greater-than-max key appends to the rightmost
	// leaf without descending. The rightmost leaf has no upper separator, so
	// the append cannot violate routing invariants.
	if n := len(t.last.keys); n > 0 && n < btreeMaxKeys && compareBKeys(k, t.last.keys[n-1]) > 0 {
		t.last.keys = append(t.last.keys, k)
		return
	}
	sep, right := t.insertInto(t.root, k)
	if right != nil {
		t.root = &binner{seps: []bkey{sep}, kids: []bnode{t.root, right}}
	}
}

// insertInto descends to the leaf and inserts, returning split information
// when the child overflowed: the separator key and the new right sibling.
func (t *btree) insertInto(n bnode, k bkey) (bkey, bnode) {
	switch node := n.(type) {
	case *bleaf:
		i := sort.Search(len(node.keys), func(i int) bool { return compareBKeys(node.keys[i], k) >= 0 })
		node.keys = append(node.keys, bkey{})
		copy(node.keys[i+1:], node.keys[i:])
		node.keys[i] = k
		if len(node.keys) <= btreeMaxKeys {
			return bkey{}, nil
		}
		return t.splitLeaf(node)
	case *binner:
		ci := sort.Search(len(node.seps), func(i int) bool { return compareBKeys(node.seps[i], k) > 0 })
		sep, right := t.insertInto(node.kids[ci], k)
		if right == nil {
			return bkey{}, nil
		}
		node.seps = append(node.seps, bkey{})
		copy(node.seps[ci+1:], node.seps[ci:])
		node.seps[ci] = sep
		node.kids = append(node.kids, nil)
		copy(node.kids[ci+2:], node.kids[ci+1:])
		node.kids[ci+1] = right
		if len(node.kids) <= btreeMaxKeys {
			return bkey{}, nil
		}
		return t.splitInner(node)
	}
	return bkey{}, nil
}

func (t *btree) splitLeaf(node *bleaf) (bkey, bnode) {
	mid := len(node.keys) / 2
	right := &bleaf{keys: append([]bkey(nil), node.keys[mid:]...), next: node.next, prev: node}
	node.keys = node.keys[:mid:mid]
	if right.next != nil {
		right.next.prev = right
	} else {
		t.last = right
	}
	node.next = right
	return right.keys[0], right
}

func (t *btree) splitInner(node *binner) (bkey, bnode) {
	mid := len(node.seps) / 2
	sep := node.seps[mid]
	right := &binner{
		seps: append([]bkey(nil), node.seps[mid+1:]...),
		kids: append([]bnode(nil), node.kids[mid+1:]...),
	}
	node.seps = node.seps[:mid:mid]
	node.kids = node.kids[: mid+1 : mid+1]
	return sep, right
}

// remove deletes the entry, if present. Leaves may underflow — the tree is
// not rebalanced on deletion (deleted space is reclaimed when neighbouring
// inserts split again), which keeps removal a plain descent; empty leaves
// stay linked and are skipped by cursors.
func (t *btree) remove(k bkey) bool {
	n := t.root
	for {
		switch node := n.(type) {
		case *bleaf:
			i := sort.Search(len(node.keys), func(i int) bool { return compareBKeys(node.keys[i], k) >= 0 })
			if i >= len(node.keys) || compareBKeys(node.keys[i], k) != 0 {
				return false
			}
			copy(node.keys[i:], node.keys[i+1:])
			node.keys = node.keys[:len(node.keys)-1]
			t.size--
			return true
		case *binner:
			ci := sort.Search(len(node.seps), func(i int) bool { return compareBKeys(node.seps[i], k) > 0 })
			n = node.kids[ci]
		}
	}
}

// bcursor walks leaf entries in either direction.
type bcursor struct {
	leaf *bleaf
	i    int
	desc bool
}

// entry returns the current entry; ok is false when the cursor is exhausted.
func (c *bcursor) entry() (bkey, bool) {
	if c.leaf == nil {
		return bkey{}, false
	}
	return c.leaf.keys[c.i], true
}

// advance moves one entry in the cursor's direction, skipping empty leaves.
func (c *bcursor) advance() {
	if c.leaf == nil {
		return
	}
	if c.desc {
		c.i--
		for c.i < 0 {
			c.leaf = c.leaf.prev
			if c.leaf == nil {
				return
			}
			c.i = len(c.leaf.keys) - 1
		}
		return
	}
	c.i++
	for c.i >= len(c.leaf.keys) {
		c.leaf = c.leaf.next
		if c.leaf == nil {
			return
		}
		c.i = 0
	}
}

// seekFirst positions an ascending cursor at the first entry for which pred
// holds. pred must be monotone: false for a prefix of the key space, true
// for the rest.
func (t *btree) seekFirst(pred func(bkey) bool) bcursor {
	n := t.root
	for {
		switch node := n.(type) {
		case *bleaf:
			i := sort.Search(len(node.keys), func(i int) bool { return pred(node.keys[i]) })
			if i < len(node.keys) {
				return bcursor{leaf: node, i: i}
			}
			// The landing leaf holds no match. Separators are lower bounds
			// for their right siblings, so if any match exists past this
			// leaf it opens the next non-empty one.
			for next := node.next; next != nil; next = next.next {
				if len(next.keys) > 0 {
					if pred(next.keys[0]) {
						return bcursor{leaf: next, i: 0}
					}
					return bcursor{}
				}
			}
			return bcursor{}
		case *binner:
			ci := sort.Search(len(node.seps), func(i int) bool { return pred(node.seps[i]) })
			n = node.kids[ci]
		}
	}
}

// seekLast positions a descending cursor at the last entry for which pred
// does NOT hold — i.e. one before the first pred-true entry. pred must be
// monotone as in seekFirst.
func (t *btree) seekLast(pred func(bkey) bool) bcursor {
	c := t.seekFirst(pred)
	c.desc = true
	if c.leaf == nil {
		// Everything fails pred: last overall entry.
		c.leaf = t.last
		c.i = len(t.last.keys)
		c.advance()
		return c
	}
	c.advance()
	return c
}

// min returns the tree's smallest entry.
func (t *btree) min() bcursor {
	return t.seekFirst(func(bkey) bool { return true })
}

// max returns a descending cursor at the tree's largest entry.
func (t *btree) max() bcursor {
	return t.seekLast(func(bkey) bool { return false })
}
