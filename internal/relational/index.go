package relational

import (
	"fmt"
	"sort"
	"strings"
)

// Secondary hash indexes. Shared Inlining joins every child relation to its
// parent on (id, parentId), so those key columns are indexed automatically
// at CREATE TABLE; additional indexes come from CREATE INDEX. Indexes are
// maintained incrementally by Insert/Delete/Update (see table.go), which is
// what turns the paper's update translations and ASR lookups into probes
// instead of scans.

// hashIndex maps a column value to the rowids holding it. NULLs are not
// indexed (SQL equality never matches them). Entries key on the joinKey
// normalization (value.go) — a VARCHAR holding canonical integer text
// shares a bucket with that integer — so probe hits coincide with
// compareValues equality and an indexed query returns the same rows the
// scan path would.
type hashIndex struct {
	col     int
	entries map[Value][]int
}

// autoIndexColumns are the declared key/parent-ID column names that get a
// hash index the moment their table is created.
var autoIndexColumns = []string{"id", "parentId"}

// CreateIndex builds a hash index on the named column. Creating an index
// that already exists is a no-op, matching repeated schema setup.
func (t *Table) CreateIndex(col string) error {
	key := strings.ToLower(col)
	if _, ok := t.index[key]; ok {
		return nil
	}
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return fmt.Errorf("relational: no column %q in table %s", col, t.Name)
	}
	idx, err := t.scanHashIndex(ci, 0)
	if err != nil {
		return err
	}
	// Versioned tables: superseded chain versions are still visible to open
	// snapshots, so their values must be probeable too (mvcc.go).
	if t.vers > 0 {
		for rid := range t.meta {
			for v := t.meta[rid].older; v != nil; v = v.older {
				if val := v.row[ci]; !val.IsNull() {
					idx.addIfAbsent(val, rid)
				}
			}
		}
	}
	t.index[key] = idx
	t.indexEpoch++
	return nil
}

// scanHashIndex builds a hash index on column ci from the table's current
// rows; hint sizes the entry map.
func (t *Table) scanHashIndex(ci, hint int) (*hashIndex, error) {
	idx := &hashIndex{col: ci, entries: make(map[Value][]int, hint)}
	_, err := t.Scan(func(rid int, row []Value) bool {
		if v := row[ci]; !v.IsNull() {
			idx.add(v, rid)
		}
		return true
	})
	return idx, err
}

// DropIndex removes the hash index on the named column and every ordered
// index led by it, if present; it is what DROP INDEX runs. The index
// ablations use it to measure what an access path buys: dropping
// "parentId" removes the hash index and the (parentId, …) B+trees
// together, so the ablated run really falls back to scans and sorts. A
// dropped auto-index is not recreated.
func (t *Table) DropIndex(col string) bool {
	key := strings.ToLower(col)
	dropped := false
	if _, ok := t.index[key]; ok {
		delete(t.index, key)
		dropped = true
	}
	for name, oidx := range t.ordered {
		lead := t.Schema.Columns[oidx.cols[0]].Name
		if strings.EqualFold(lead, col) {
			delete(t.ordered, name)
			dropped = true
		}
	}
	t.refreshOrderedList()
	t.indexEpoch++
	return dropped
}

// IndexedColumns returns the names of the table's indexed columns, sorted by
// schema position. Plan introspection and tests use it.
func (t *Table) IndexedColumns() []string {
	var cols []string
	for i, c := range t.Schema.Columns {
		if idx := t.index[strings.ToLower(c.Name)]; idx != nil && idx.col == i {
			cols = append(cols, c.Name)
		}
	}
	return cols
}

// lookupIndex returns the index on the column, if any.
func (t *Table) lookupIndex(col string) *hashIndex {
	return t.index[strings.ToLower(col)]
}

// orderedLeadIndex returns an ordered index whose leading key column is
// col, if any — the indexes a range predicate on col can walk. Ties pick
// the canonically first index, keeping plans deterministic.
func (t *Table) orderedLeadIndex(col string) *orderedIndex {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return nil
	}
	var best *orderedIndex
	for _, oidx := range t.ordered {
		if oidx.cols[0] != ci {
			continue
		}
		if best == nil || oidx.name < best.name {
			best = oidx
		}
	}
	return best
}

// autoIndex creates the automatic key-column indexes on a fresh table and
// marks the tuple-id column unique (the shredder assigns ids uniquely).
func (t *Table) autoIndex() {
	for _, col := range autoIndexColumns {
		if t.Schema.ColumnIndex(col) >= 0 {
			// Cannot fail: the column exists and the table is new.
			_ = t.CreateIndex(col)
		}
	}
	if ci := t.Schema.ColumnIndex("id"); ci >= 0 {
		if t.uniqueCols == nil {
			t.uniqueCols = make(map[int]bool, 1)
		}
		t.uniqueCols[ci] = true
	}
}

// add indexes rid under v. All maintenance goes through add/remove so the
// joinKey normalization cannot be skipped on any path (insert, update,
// undo, rebuild).
func (idx *hashIndex) add(v Value, rid int) {
	k := v.joinKey()
	idx.entries[k] = append(idx.entries[k], rid)
}

// addIfAbsent indexes rid under v unless that exact entry already exists.
// Versioned updates keep old-value entries alive for snapshot readers, so a
// value flipped away and back again must not double-index the row (mvcc.go).
func (idx *hashIndex) addIfAbsent(v Value, rid int) {
	k := v.joinKey()
	for _, r := range idx.entries[k] {
		if r == rid {
			return
		}
	}
	idx.entries[k] = append(idx.entries[k], rid)
}

func (idx *hashIndex) remove(v Value, rid int) {
	k := v.joinKey()
	rids := idx.entries[k]
	for i, r := range rids {
		if r == rid {
			rids[i] = rids[len(rids)-1]
			rids = rids[:len(rids)-1]
			break
		}
	}
	if len(rids) == 0 {
		delete(idx.entries, k)
	} else {
		idx.entries[k] = rids
	}
}

// probe returns rowids of live rows whose indexed column equals v (in the
// compareValues sense — the joinKey normalization on both sides makes the
// probe exactly as selective as the scan path's equality filter).
func (idx *hashIndex) probe(v Value) []int {
	if v.IsNull() {
		return nil
	}
	return idx.entries[v.joinKey()]
}

// ---- ordered (B+tree) indexes ----

// orderedIndex is a B+tree index over one or more columns. Unlike the hash
// indexes it stores NULL keys too (NULLs sort first, matching ORDER BY), so
// a full walk enumerates every live row in key order — that is what lets
// the executor elide sorts and serve range predicates. Equality probes
// still honour SQL semantics: a NULL probe value matches nothing.
type orderedIndex struct {
	name string // canonical lower-case "col1,col2" form
	cols []int
	tree *btree
	// stale counts tombstoned entries left in the tree: deletion unlinks
	// the heap row but leaves the B+tree entry, and readers skip entries
	// whose row is gone. Removal-by-descent on every DELETE would double
	// the paper's delete-path cost; instead the tree rebuilds from live
	// rows once stale entries outnumber live ones (amortized O(1) per
	// delete). Updates DO unlink eagerly — a moved key must not appear
	// twice.
	stale int
}

// orderedKeyName canonicalizes a column list for index lookup.
func orderedKeyName(cols []string) string {
	return strings.ToLower(strings.Join(cols, ","))
}

// CreateOrderedIndex builds a B+tree index over the named columns, in key
// order. Creating an existing ordered index is a no-op.
func (t *Table) CreateOrderedIndex(cols ...string) error {
	if len(cols) == 0 {
		return fmt.Errorf("relational: ordered index on %s needs at least one column", t.Name)
	}
	if len(cols) > btreeMaxCols {
		return fmt.Errorf("relational: ordered index on %s: at most %d key columns", t.Name, btreeMaxCols)
	}
	key := orderedKeyName(cols)
	if _, ok := t.ordered[key]; ok {
		return nil
	}
	idx := &orderedIndex{name: key, cols: make([]int, len(cols))}
	for i, c := range cols {
		ci := t.Schema.ColumnIndex(c)
		if ci < 0 {
			return fmt.Errorf("relational: no column %q in table %s", c, t.Name)
		}
		idx.cols[i] = ci
	}
	if err := idx.rebuild(t); err != nil {
		return err
	}
	// Versioned tables: index superseded chain versions' keys as well, so
	// snapshot readers can reach them (remove-then-insert keeps each key
	// unique; see mvcc.go).
	if t.vers > 0 {
		for rid := range t.meta {
			for v := t.meta[rid].older; v != nil; v = v.older {
				k := idx.keyFor(rid, v.row)
				idx.tree.remove(k)
				idx.tree.insert(k)
			}
		}
	}
	t.ordered[key] = idx
	t.refreshOrderedList()
	t.indexEpoch++
	return nil
}

// refreshOrderedList recomputes the cached canonical-order index slice the
// hot planning path iterates (allocating and sorting per query would cost
// more than the probe it plans).
func (t *Table) refreshOrderedList() {
	names := make([]string, 0, len(t.ordered))
	for name := range t.ordered {
		names = append(names, name)
	}
	sort.Strings(names)
	t.orderedList = t.orderedList[:0]
	for _, name := range names {
		t.orderedList = append(t.orderedList, t.ordered[name])
	}
}

// OrderedIndexes returns the key-column lists of the table's ordered
// indexes, sorted by canonical name. Plan introspection and tests use it.
func (t *Table) OrderedIndexes() [][]string {
	out := make([][]string, len(t.orderedList))
	for i, idx := range t.orderedList {
		cols := make([]string, len(idx.cols))
		for j, ci := range idx.cols {
			cols[j] = t.Schema.Columns[ci].Name
		}
		out[i] = cols
	}
	return out
}

// orderedIndexList returns the ordered indexes in deterministic (canonical
// name) order, so access-path choice is stable between Explain and runs.
func (t *Table) orderedIndexList() []*orderedIndex { return t.orderedList }

// rebuild recreates the tree from the table's live rows, dropping
// tombstoned entries. An error is a failed page fault, which also poisons
// the DB.
func (idx *orderedIndex) rebuild(t *Table) error {
	idx.tree = newBTree()
	idx.stale = 0
	_, err := t.Scan(func(rid int, row []Value) bool {
		idx.tree.insert(idx.keyFor(rid, row))
		return true
	})
	return err
}

// keyFor builds the index entry for a row.
func (idx *orderedIndex) keyFor(rid int, row []Value) bkey {
	k := bkey{rid: rid}
	for i, ci := range idx.cols {
		k.vals[i] = row[ci]
	}
	return k
}

// covers reports whether the index key includes the column position.
func (idx *orderedIndex) covers(ci int) bool {
	for _, c := range idx.cols {
		if c == ci {
			return true
		}
	}
	return false
}

// scanRange appends to out the rowids whose key has the given equality
// prefix and whose next key column lies within [lo, hi] (either bound may
// be absent), walking in ascending or descending key order. A NULL equality
// prefix value matches nothing (SQL equality); rows whose range column is
// NULL are excluded by bounds but included by full walks, mirroring how a
// WHERE conjunct would reject them while ORDER BY keeps them.
func (idx *orderedIndex) scanRange(prefix []Value, lo, hi rangeBound, desc bool, out []int) []int {
	return idx.scanRangeVis(prefix, lo, hi, desc, out, nil)
}

// scanRangeVis is scanRange with an entry filter: keep (when non-nil) is
// consulted per entry before emission. Versioned tables pass a visibility
// filter — a rowid can sit in the tree under both its old and new keys, and
// only the entry matching the snapshot-visible row's key may be emitted
// (mvcc.go); the filter runs inside the walk so group-boundary detection in
// descending scans only sees surviving entries.
func (idx *orderedIndex) scanRangeVis(prefix []Value, lo, hi rangeBound, desc bool, out []int, keep func(k bkey) bool) []int {
	for _, v := range prefix {
		if v.IsNull() {
			return out
		}
	}
	p := len(prefix)
	// start/stop predicates over the (prefix, range-column) portion of keys.
	afterLow := func(k bkey) bool {
		if c := comparePrefix(k, prefix); c != 0 {
			return c > 0
		}
		if !lo.set {
			return true
		}
		c := compareValues(k.vals[p], lo.val)
		return c > 0 || (c == 0 && lo.incl)
	}
	pastHigh := func(k bkey) bool {
		if c := comparePrefix(k, prefix); c != 0 {
			return c > 0
		}
		if !hi.set {
			return false
		}
		c := compareValues(k.vals[p], hi.val)
		return c > 0 || (c == 0 && !hi.incl)
	}
	if desc {
		// Descending must match what a stable descending sort produces:
		// key groups in reverse order, insertion (rowid) order within each
		// group. Walk ascending, record group boundaries, emit backwards.
		var tmp []int
		var starts []int
		var prev bkey
		c := idx.tree.seekFirst(afterLow)
		for {
			k, ok := c.entry()
			if !ok || pastHigh(k) {
				break
			}
			if keep != nil && !keep(k) {
				c.advance()
				continue
			}
			if len(tmp) == 0 || compareBVals(k, prev) != 0 {
				starts = append(starts, len(tmp))
			}
			prev = k
			tmp = append(tmp, k.rid)
			c.advance()
		}
		for gi := len(starts) - 1; gi >= 0; gi-- {
			end := len(tmp)
			if gi+1 < len(starts) {
				end = starts[gi+1]
			}
			out = append(out, tmp[starts[gi]:end]...)
		}
		return out
	}
	c := idx.tree.seekFirst(afterLow)
	for {
		k, ok := c.entry()
		if !ok || pastHigh(k) {
			return out
		}
		if keep == nil || keep(k) {
			out = append(out, k.rid)
		}
		c.advance()
	}
}

// compareBVals orders two index entries by key values alone (no rowid
// tiebreak) — group-boundary detection for descending scans.
func compareBVals(a, b bkey) int {
	for i := range a.vals {
		if c := compareValues(a.vals[i], b.vals[i]); c != 0 {
			return c
		}
	}
	return 0
}

// rangeBound is one endpoint of a range access path. The zero value is an
// absent bound — bounds travel by value (no per-probe pointer allocation),
// so set distinguishes "no bound" from "bound at NULL".
type rangeBound struct {
	val  Value
	incl bool
	set  bool
}
