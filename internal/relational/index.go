package relational

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Secondary hash indexes. Shared Inlining joins every child relation to its
// parent on (id, parentId), so those key columns are indexed automatically
// at CREATE TABLE; additional indexes come from CREATE INDEX. Indexes are
// maintained incrementally by the row writer (table.go), which is what
// turns the paper's update translations and ASR lookups into probes
// instead of scans.
//
// Every hash structure of the package — these indexes, the executor's
// transient hash-join tables and its IN-subquery sets — is a keyMap. Keys
// follow the joinKey normalization (value.go), under which every key
// column the shredder and the ASR write holds canonical integers, so a key
// hashes as one machine word; only text that is not canonical integer text
// goes to a string side map. A key held by a single row stores its rowid
// in the map word itself, so indexing a unique id allocates nothing.

// hashIndex maps a column value to the rowids holding it. NULLs are not
// indexed (SQL equality never matches them). Keys follow the joinKey
// normalization — a VARCHAR holding canonical integer text shares a bucket
// with that integer — so probe hits coincide with compareValues equality
// and an indexed query returns the same rows the scan path would. A probe
// lists rowids in ascending order (see ridMap).
type hashIndex struct {
	col  int
	rids ridMap
}

// keyMap maps non-NULL Values, under the joinKey normalization, to int64
// words: canonical integers (INTEGER values, and VARCHAR text that
// strconv.FormatInt would print) key ints, any other text keys strs. A
// NULL must never reach it: it would alias the integer 0.
type keyMap struct {
	ints map[int64]int64
	strs map[string]int64
}

// intKey returns v's integer key, or ok false for non-canonical text.
func intKey(v Value) (n int64, ok bool) {
	if v.kind == KindText {
		return canonInt(v.s)
	}
	return v.i, true
}

func (m *keyMap) get(v Value) (int64, bool) {
	if n, ok := intKey(v); ok {
		w, ok := m.ints[n]
		return w, ok
	}
	w, ok := m.strs[v.s]
	return w, ok
}

func (m *keyMap) put(v Value, w int64) {
	if n, ok := intKey(v); ok {
		if m.ints == nil {
			m.ints = make(map[int64]int64)
		}
		m.ints[n] = w
		return
	}
	if m.strs == nil {
		m.strs = make(map[string]int64)
	}
	m.strs[v.s] = w
}

func (m *keyMap) del(v Value) {
	if n, ok := intKey(v); ok {
		delete(m.ints, n)
		return
	}
	delete(m.strs, v.s)
}

// len returns the number of keys.
func (m *keyMap) len() int { return len(m.ints) + len(m.strs) }

// ridMap maps keys to rowid lists: a hash index's entries, or a hash
// join's build side. A key held by one rowid stores that rowid as its
// keyMap word; a key held by several stores ^i, naming buckets[i]. Lists
// are in ascending rowid order — the order rows were inserted, since the
// heap assigns rowids in increasing order, and the order a heap scan
// visits them. A rowid that comes back (a rolled-back delete, an update
// back to an old key) takes its own place again, so after a rollback a
// probe returns exactly what it returned before the rolled-back writes.
type ridMap struct {
	keys    keyMap
	buckets []ridBucket
	free    []int // emptied buckets, reused before the slab grows
}

// ridBucket is the rowid list of a key held by two or more rows. Removal
// overwrites the entry with ^rid, a tombstone readers skip (every rowid a
// bucket yields that is negative is one), or truncates it when it is the
// last; the bucket compacts once tombstones outnumber live entries, and
// falls back to an inline rowid when one live entry is left. Its last
// entry is always live.
type ridBucket struct {
	rids []int
	dead int // tombstones in rids
	// at is where the previous search ended. The next one gallops outward
	// from it, so a run of writes in rowid order, ascending or descending
	// — how a DELETE and a rollback apply them — finds each entry in O(1)
	// amortized, and any other order in O(log n).
	at int
}

// ridOf returns the rowid an entry names, live or tombstoned.
func ridOf(e int) int {
	if e < 0 {
		return ^e
	}
	return e
}

// reset empties the map, sizing its integer keys for hint entries.
func (m *ridMap) reset(hint int) {
	*m = ridMap{keys: keyMap{ints: make(map[int64]int64, hint)}}
}

// get returns the rowids under key k (non-NULL): one[0] for an inline
// rowid, else the bucket itself, tombstones included. The bucket is only
// valid until the next write to the map.
func (m *ridMap) get(k Value, one *[1]int) []int {
	w, ok := m.keys.get(k)
	switch {
	case !ok:
		return nil
	case w >= 0:
		one[0] = int(w)
		return one[:]
	}
	return m.buckets[^w].rids
}

// add lists rid under key k (non-NULL); an entry already there is kept
// as is, so a row is never listed twice under one key.
func (m *ridMap) add(k Value, rid int) {
	w, ok := m.keys.get(k)
	switch {
	case !ok:
		m.keys.put(k, int64(rid))
	case w >= 0:
		if int(w) == rid {
			return
		}
		var bi int
		if n := len(m.free); n > 0 {
			bi, m.free = m.free[n-1], m.free[:n-1]
		} else {
			bi = len(m.buckets)
			m.buckets = append(m.buckets, ridBucket{})
		}
		b := &m.buckets[bi]
		b.rids = append(b.rids[:0], min(int(w), rid), max(int(w), rid))
		m.keys.put(k, ^int64(bi))
	default:
		m.buckets[^w].add(rid)
	}
}

// remove unlists rid from key k (non-NULL), tolerating an absent entry.
func (m *ridMap) remove(k Value, rid int) {
	w, ok := m.keys.get(k)
	switch {
	case !ok:
		return
	case w >= 0:
		if int(w) == rid {
			m.keys.del(k)
		}
		return
	}
	bi := int(^w)
	b := &m.buckets[bi]
	if !b.remove(rid) {
		return
	}
	if live := len(b.rids) - b.dead; live == 1 {
		// The last entry is live, so it is the survivor.
		m.keys.put(k, int64(b.rids[len(b.rids)-1]))
		*b = ridBucket{rids: b.rids[:0]}
		m.free = append(m.free, bi)
	} else if b.dead > live {
		b.compact()
	}
}

// seek returns the first position whose entry's rowid is at least rid,
// galloping outward from b.at before the binary search.
func (b *ridBucket) seek(rid int) int {
	rids := b.rids
	lo, hi := 0, len(rids)
	if p := b.at; p < len(rids) {
		step := 1
		if ridOf(rids[p]) <= rid {
			lo = p
			for lo+step < len(rids) && ridOf(rids[lo+step]) <= rid {
				lo += step
				step *= 2
			}
			hi = min(lo+step, len(rids))
		} else {
			hi = p
			for hi-step >= 0 && ridOf(rids[hi-step]) > rid {
				hi -= step
				step *= 2
			}
			lo = max(hi-step, 0)
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ridOf(rids[m]) < rid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	b.at = lo
	return lo
}

// add lists rid in order: appended when it is the largest (the last entry
// is live, so no tombstone check), a tombstone of it revived, or inserted.
func (b *ridBucket) add(rid int) {
	n := len(b.rids)
	if b.rids[n-1] < rid {
		b.rids = append(b.rids, rid)
		return
	}
	i := b.seek(rid)
	switch {
	case b.rids[i] == rid:
	case b.rids[i] == ^rid:
		b.rids[i] = rid
		b.dead--
	default:
		b.rids = slices.Insert(b.rids, i, rid)
	}
}

// remove unlists rid and reports whether it was listed.
func (b *ridBucket) remove(rid int) bool {
	i := b.seek(rid)
	if i == len(b.rids) || b.rids[i] != rid {
		return false
	}
	if i < len(b.rids)-1 {
		b.rids[i] = ^rid
		b.dead++
		return true
	}
	// The last entry: truncate it and the tombstones before it.
	for i > 0 && b.rids[i-1] < 0 {
		i--
		b.dead--
	}
	b.rids = b.rids[:i]
	return true
}

// compact squeezes the tombstones out, keeping the order.
func (b *ridBucket) compact() {
	j := 0
	for _, r := range b.rids {
		if r >= 0 {
			b.rids[j] = r
			j++
		}
	}
	b.rids = b.rids[:j]
	b.dead, b.at = 0, 0
}

// appendLive appends the live rowids of a probe result to dst.
func appendLive(dst, rids []int) []int {
	for _, rid := range rids {
		if rid >= 0 {
			dst = append(dst, rid)
		}
	}
	return dst
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
	idx := &hashIndex{col: ci}
	if err := idx.rebuild(t); err != nil {
		return err
	}
	// Versioned tables: superseded chain versions are still visible to open
	// snapshots, so their values must be probeable too (mvcc.go).
	if t.vers > 0 {
		for rid := range t.meta {
			for v := t.meta[rid].older; v != nil; v = v.older {
				if val := v.row[ci]; !val.IsNull() {
					idx.rids.add(val, rid)
				}
			}
		}
	}
	t.index[key] = idx
	t.indexesChanged()
	return nil
}

// rebuild refills the index from the table's current rows, for CREATE
// INDEX and Restore (paged reopen indexes rows as their pages decode). A
// unique column takes a key per row, so its map is sized for all of them.
func (idx *hashIndex) rebuild(t *Table) error {
	hint := 0
	if t.isUnique(idx.col) {
		hint = t.live
	}
	idx.rids.reset(hint)
	_, err := t.Scan(func(rid int, row []Value) bool {
		if v := row[idx.col]; !v.IsNull() {
			idx.rids.add(v, rid)
		}
		return true
	})
	return err
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
	t.indexesChanged()
	return dropped
}

// IndexedColumns returns the names of the table's indexed columns, sorted by
// schema position. Plan introspection and tests use it.
func (t *Table) IndexedColumns() []string {
	var cols []string
	for _, idx := range t.hashList {
		cols = append(cols, t.Schema.Columns[idx.col].Name)
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
		t.uniqueCols = []int{ci}
	}
}

// isUnique reports whether column ci holds at most one row per value.
func (t *Table) isUnique(ci int) bool { return slices.Contains(t.uniqueCols, ci) }

// indexesChanged refreshes the index lists the row writer and the planner
// iterate — hash indexes in column order, ordered indexes in canonical
// name order, so no per-row or per-plan loop ranges over a map — and bumps
// indexEpoch, invalidating cached access plans. Every change to the index
// set, or to an index's identity, goes through it.
func (t *Table) indexesChanged() {
	t.hashList = t.hashList[:0]
	for _, idx := range t.index {
		t.hashList = append(t.hashList, idx)
	}
	slices.SortFunc(t.hashList, func(a, b *hashIndex) int { return a.col - b.col })
	names := make([]string, 0, len(t.ordered))
	for name := range t.ordered {
		names = append(names, name)
	}
	sort.Strings(names)
	t.orderedList = t.orderedList[:0]
	for _, name := range names {
		t.orderedList = append(t.orderedList, t.ordered[name])
	}
	t.indexEpoch++
}

// probe returns rowids of rows whose indexed column equals v (in the
// compareValues sense — the joinKey normalization on both sides makes the
// probe exactly as selective as the scan path's equality filter), in
// ascending order, using one for a single-row key. Negative entries are
// tombstones the caller skips.
func (idx *hashIndex) probe(v Value, one *[1]int) []int {
	if v.IsNull() {
		return nil
	}
	return idx.rids.get(v, one)
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
	// keys is the array tree was built over; its leaves slice it. The next
	// rebuild refills it in place, as the tree reading it is replaced.
	keys []bkey
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
	t.indexesChanged()
	return nil
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

// rebuild bulk-builds the tree from the table's live rows' sorted keys,
// dropping tombstoned entries; CREATE INDEX, compaction and Restore build
// through it. An error is a failed page fault, which also poisons the DB.
func (idx *orderedIndex) rebuild(t *Table) error {
	keys := slices.Grow(idx.keys[:0], t.live)
	_, err := t.Scan(func(rid int, row []Value) bool {
		keys = append(keys, idx.keyFor(rid, row))
		return true
	})
	slices.SortFunc(keys, compareBKeys)
	idx.keys = keys
	idx.tree = newBTreeFromSorted(keys)
	idx.stale = 0
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
