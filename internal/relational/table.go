package relational

import (
	"fmt"
	"strings"
)

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered column list.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema, rejecting duplicate column names
// (case-insensitively, like SQL identifiers). byName carries both the
// declared spelling and the lower-case form, so the common exact-spelling
// lookup needs no ToLower (which allocates for mixed-case names like
// parentId — a per-row cost when column references resolve during a scan).
func NewSchema(cols []Column) (*Schema, error) {
	s := &Schema{Columns: cols, byName: make(map[string]int, 2*len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("relational: duplicate column %q", c.Name)
		}
		s.byName[key] = i
		s.byName[c.Name] = i
	}
	return s, nil
}

// ColumnIndex returns the position of the named column, or -1. The map
// covers declared and lower-case spellings; other casings fall back to an
// allocation-free EqualFold scan (schemas are a handful of columns).
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	for i := range s.Columns {
		if strings.EqualFold(s.Columns[i].Name, name) {
			return i
		}
	}
	return -1
}

// Table is a heap table: a row slice with tombstoned deletions and hash
// indexes. Row identity (rowid) is positional and stable for the lifetime of
// the row.
type Table struct {
	Name   string
	Schema *Schema

	// db points back at the owning database so mutations record undo
	// entries into its active transaction log (txn.go).
	db *DB

	rows [][]Value // nil entry = deleted
	live int
	// index holds the hash indexes keyed by lower-case column name, and
	// hashList the same indexes in column order; ordered holds the B+tree
	// indexes keyed by their canonical comma-joined column list, and
	// orderedList the same sorted by that key. The row writer and the
	// planner iterate the lists, which indexesChanged rebuilds (index.go).
	index       map[string]*hashIndex
	hashList    []*hashIndex
	ordered     map[string]*orderedIndex
	orderedList []*orderedIndex
	// uniqueCols lists the columns holding at most one row per value — the
	// auto-indexed tuple-id column, whose uniqueness the shredder
	// guarantees. An equality on a unique column pins a join level to a
	// single row, which order planning exploits (order.go).
	uniqueCols []int
	// indexEpoch increments whenever the table's index set (or an index's
	// identity, as on snapshot restore) changes. Cached physical access
	// plans validate against the sum of their sources' epochs.
	indexEpoch int64

	// MVCC state (mvcc.go), guarded by the DB writer lock. meta holds
	// per-row version metadata (allocated lazily, only once versioned writes
	// happen); vers counts rows whose metadata is non-trivial — the
	// single-version fast paths gate on vers == 0. intentTxn is the open
	// transaction holding a write intent on the table (0 = none), and
	// lastCommit is the stamp of the last commit that touched it, which
	// first-committer-wins checks against a claimer's snapshot.
	meta       []rowMeta
	vers       int
	intentTxn  uint64
	lastCommit uint64

	// pg, when non-nil, is the table's paged-storage state (paged.go): rows
	// live on buffer-pool-managed heap pages, a nil t.rows slot means
	// "evicted, refault on demand" rather than "deleted", and pg.dir is the
	// liveness authority. Only paged.go reads it: row reads go through
	// rowCursor, Row or liveAt, and the row-writer methods below are the
	// only callers of its pg* row hooks.
	pg *pagedTable
}

// newTable creates an empty table owned by db.
func newTable(db *DB, name string, schema *Schema) *Table {
	return &Table{
		db:      db,
		Name:    name,
		Schema:  schema,
		index:   make(map[string]*hashIndex),
		ordered: make(map[string]*orderedIndex),
	}
}

// RowCount returns the number of live rows.
func (t *Table) RowCount() int { return t.live }

// ---- the row writer ----
// Every row write goes through the methods from here to uniqueViolated:
// Insert, Delete and Update, the undo log (revert), a lone transaction's
// upgrade (upgradeRow), commit-time vacuum (mvcc.go) and paged reopen
// (paged.go, through indexRow). They are the only
// code that writes a row slot, a live count, a page-directory entry (the pg*
// hooks in paged.go) or an index entry; residency (faults and evictions)
// and whole-table lifecycle (DDL, Restore) stay with their owners.

// Insert appends a row, coercing values to column types, and returns its
// rowid. The table takes row over: it is coerced in place and stored, so
// the caller passes a slice it will not touch again.
func (t *Table) Insert(row []Value) (int, error) {
	if len(row) != len(t.Schema.Columns) {
		return 0, fmt.Errorf("relational: table %s expects %d values, got %d", t.Name, len(t.Schema.Columns), len(row))
	}
	if err := t.db.claimIntentLocked(t); err != nil {
		return 0, err
	}
	for i, v := range row {
		cv, err := coerce(v, t.Schema.Columns[i].Type)
		if err != nil {
			return 0, fmt.Errorf("relational: table %s column %s: %w", t.Name, t.Schema.Columns[i].Name, err)
		}
		row[i] = cv
	}
	// Unique key columns are enforced, not assumed: order planning elides
	// sorts on the premise that an id equality pins one row, so a
	// duplicate must fail loudly here rather than corrupt orderings later.
	for _, ci := range t.uniqueCols {
		if v := row[ci]; !v.IsNull() && t.uniqueViolated(ci, v, -1) {
			return 0, fmt.Errorf("relational: duplicate value %s for unique column %s.%s",
				valueString(v), t.Name, t.Schema.Columns[ci].Name)
		}
	}
	rid := len(t.rows)
	if err := t.pgRowFits(rid, row); err != nil {
		return 0, err
	}
	t.rows = append(t.rows, row)
	t.live++
	t.pgPlace(rid, row)
	e := undoEntry{kind: undoInsert, t: t, rid: rid}
	if w := t.db.versioning(); w != nil {
		// Versioned insert: the row is physically present but marked, so
		// only its own transaction sees it until commit.
		t.ensureMeta()
		t.meta[rid].begin = markBit | w.txnID
		t.vers++
		e.v = &vUndo{}
	}
	if t.db.undo != nil {
		t.db.undo.record(e)
	}
	t.indexRow(rid, row)
	return rid, nil
}

// Delete removes a row and returns its values for trigger OLD bindings.
// With no second session looking (an autocommit statement with no snapshot
// registered, or a lone transaction; mvcc.go's mode rule) the row leaves
// its slot at once and its B+tree entries stay behind as tombstones. For a
// versioned writer the row and its index entries stay physically in place:
// only the version metadata records the deletion, and commit-time vacuum
// removes the row once no snapshot can see it.
func (t *Table) Delete(rid int) ([]Value, error) {
	row := t.Row(rid)
	if row == nil {
		return nil, fmt.Errorf("relational: table %s has no row %d", t.Name, rid)
	}
	if err := t.db.claimIntentLocked(t); err != nil {
		return nil, err
	}
	if w := t.db.versioning(); w != nil {
		t.ensureMeta()
		m := &t.meta[rid]
		wasVers := m.begin != 0 || m.end != 0 || m.older != nil
		m.end = markBit | w.txnID
		if !wasVers {
			t.vers++
		}
		t.live--
		if t.db.undo != nil {
			t.db.undo.record(undoEntry{kind: undoDeleteV, t: t, rid: rid, v: &vUndo{wasVers: wasVers}})
		}
		return row, nil
	}
	if t.db.undo != nil {
		t.db.undo.record(undoEntry{kind: undoDelete, t: t, rid: rid, row: row})
	}
	t.dropRow(rid, row, true)
	t.live--
	return row, nil
}

// Update overwrites the given columns of a row. With no second session
// looking (mvcc.go's mode rule) the row mutates in place, each index entry
// whose key changed moves once, and only the undo log keeps the pre-image.
// For a versioned writer the pre-image goes onto the row's version chain
// and the current row is marked with the writer's transaction id; the
// pre-image keeps its index entries for snapshot readers until vacuum
// reclaims them.
func (t *Table) Update(rid int, cols []int, vals []Value) error {
	row := t.Row(rid)
	if row == nil {
		return fmt.Errorf("relational: table %s has no row %d", t.Name, rid)
	}
	if err := t.db.claimIntentLocked(t); err != nil {
		return err
	}
	// Dirty the page before mutating in place: unique probes below can
	// fault other pages in, and the eviction pressure they apply must not
	// take the page under this row (dirty pages never evict).
	t.pgMark(rid)
	// The pre-image restores every assigned column on rollback — a
	// coercion error partway through the SET list leaves earlier
	// assignments applied here, and the statement-level rollback is what
	// reverses them.
	pre := make([]Value, len(row))
	copy(pre, row)
	e := undoEntry{kind: undoUpdate, t: t, rid: rid, row: pre}
	w := t.db.versioning()
	if w != nil {
		t.ensureMeta()
		m := &t.meta[rid]
		wasVers := m.begin != 0 || m.end != 0 || m.older != nil
		mark := markBit | w.txnID
		node := &rowVersion{begin: m.begin, end: mark, row: pre, older: m.older}
		m.begin, m.older = mark, node
		if !wasVers {
			t.vers++
		}
		e = undoEntry{kind: undoUpdateV, t: t, rid: rid, v: &vUndo{node: node, wasVers: wasVers}}
	}
	if t.db.undo != nil {
		t.db.undo.record(e)
	}
	err := t.assign(rid, row, cols, vals)
	// Re-key under whatever state the row ends up in: the index must track
	// the row until the rollback an error triggers.
	t.rekey(rid, pre, row, w != nil)
	if err != nil {
		return err
	}
	// Paged: a row that grew past page capacity can never be flushed; the
	// undo entry recorded above reverses the update on rollback.
	return t.pgRowFits(rid, row)
}

// assign coerces vals into the given columns of row rid in place, rejecting
// a duplicate on a unique column. A failure leaves earlier assignments
// applied.
func (t *Table) assign(rid int, row []Value, cols []int, vals []Value) error {
	for i, ci := range cols {
		cv, err := coerce(vals[i], t.Schema.Columns[ci].Type)
		if err != nil {
			return fmt.Errorf("relational: table %s column %s: %w", t.Name, t.Schema.Columns[ci].Name, err)
		}
		if !cv.IsNull() && t.isUnique(ci) && t.uniqueViolated(ci, cv, rid) {
			return fmt.Errorf("relational: duplicate value %s for unique column %s.%s",
				valueString(cv), t.Name, t.Schema.Columns[ci].Name)
		}
		row[ci] = cv
	}
	return nil
}

// revert reverses the row write undo entry e recorded (undoLog.rollbackTo).
func (t *Table) revert(e *undoEntry) {
	switch e.kind {
	case undoInsert:
		t.dropRow(e.rid, t.rows[e.rid], false)
		t.live--
		if e.v != nil {
			t.meta[e.rid] = rowMeta{}
			t.vers--
		}
		// Inserts append, and reverse application reaches them in reverse
		// rid order, so truncating restores the exact rowid sequence
		// (future inserts reuse the same rids as if the statement never
		// ran).
		if e.rid == len(t.rows)-1 {
			t.rows = t.rows[:e.rid]
			t.pgTruncate(e.rid)
			t.meta = t.meta[:min(len(t.meta), e.rid)]
		}
	case undoDelete:
		t.restoreRow(e.rid, e.row, e.row)
	case undoUpdate:
		cur := t.rows[e.rid]
		t.rekey(e.rid, cur, e.row, false)
		// Copy the pre-image back in place, preserving row identity.
		copy(cur, e.row)
	case undoDeleteV:
		// A versioned delete only marked the row's end; clearing the mark
		// resurrects it (row and index entries never moved).
		t.meta[e.rid].end = 0
		t.live++
		if !e.v.wasVers {
			t.vers--
		}
	case undoUpdateV:
		// Restore the pre-update metadata from the chain node the update
		// pushed, drop the index entries only the undone newest version
		// added, and copy the pre-image back in place.
		cur, node := t.rows[e.rid], e.v.node
		t.unindex(e.rid, cur, versionRows(node.row, node.older), false)
		copy(cur, node.row)
		t.meta[e.rid] = rowMeta{begin: node.begin, older: node.older}
		if !e.v.wasVers {
			t.vers--
		}
	}
}

// indexRow adds row rid's entries to every index.
func (t *Table) indexRow(rid int, row []Value) {
	for _, idx := range t.hashList {
		if v := row[idx.col]; !v.IsNull() {
			idx.rids.add(v, rid)
		}
	}
	for _, oidx := range t.orderedList {
		oidx.tree.insert(oidx.owned(oidx.keyFor(rid, row)))
	}
}

// unindex removes the index entries of version old of row rid, except those
// a surviving version still carries — the current row or a chain version
// kept for snapshot readers (survivors nil: the row is gone). Removals
// tolerate absent entries, so a key shared by several removed versions
// comes out once. tombstone leaves the B+tree entries in place, counted in
// stale: readers skip entries whose row is gone, and the commit compacts a
// tree once they outnumber its live rows (undoLog.commit), so a physical
// DELETE never pays a descent.
func (t *Table) unindex(rid int, old []Value, survivors [][]Value, tombstone bool) {
	for _, idx := range t.hashList {
		v := old[idx.col]
		if v.IsNull() {
			continue
		}
		carried := false
		for _, s := range survivors {
			if s != nil && compareValues(v, s[idx.col]) == 0 {
				carried = true
				break
			}
		}
		if !carried {
			idx.rids.remove(v, rid)
		}
	}
	for _, oidx := range t.orderedList {
		if tombstone {
			oidx.stale++
			continue
		}
		k := oidx.keyFor(rid, old)
		carried := false
		for _, s := range survivors {
			if s != nil && compareBKeys(k, oidx.keyFor(rid, s)) == 0 {
				carried = true
				break
			}
		}
		if !carried {
			oidx.tree.remove(k)
		}
	}
}

// dropRow physically removes row rid, whose values are row. The directory
// entry dies first, which dirties the page, so the nil slot cannot come
// back through an evict/refault cycle; then the index entries (tombstone:
// see unindex) and the slot go. The caller owns the live count.
func (t *Table) dropRow(rid int, row []Value, tombstone bool) {
	t.pgDrop(rid)
	t.unindex(rid, row, nil, tombstone)
	t.rows[rid] = nil
}

// restoreRow puts row back into the slot of physically deleted row rid,
// onto a page and into every index. dead is the image the delete removed:
// row itself when a rollback reverses the delete, but the transaction's
// last version when an upgrade brings back the committed image of a row
// its transaction updated and then deleted. The delete tombstoned dead's
// B+tree entries, which usually still sit in the tree — but an index built
// since holds only the rows live then — so each comes out by a tolerant
// remove, coming off stale, before row's keys go in.
func (t *Table) restoreRow(rid int, row, dead []Value) {
	t.rows[rid] = row
	t.pgPlace(rid, row)
	t.live++
	for _, oidx := range t.orderedList {
		if oidx.tree.remove(oidx.keyFor(rid, dead)) && oidx.stale > 0 {
			oidx.stale--
		}
	}
	t.indexRow(rid, row)
}

// upgradeRow gives row rid, which a lone transaction with mark wrote in
// place, the versioned form (mvcc.go, upgradeLoneLocked). committed is the
// row before the transaction (nil: the transaction inserted it), gone the
// image the transaction's delete removed (nil: the row is live). It
// appends the versioned undo entries that reverse the new form to out.
func (t *Table) upgradeRow(rid int, committed, gone []Value, mark uint64, out *undoLog) {
	t.ensureMeta()
	m := &t.meta[rid]
	t.vers++
	if gone != nil {
		// A deleted row comes back as the version snapshots still see, its
		// end marked: the committed image, or the deleted one for a row
		// the transaction also inserted (which no snapshot sees at all).
		back := committed
		if back == nil {
			back = gone
		}
		t.restoreRow(rid, back, gone)
		t.live--
		m.end = mark
		if committed != nil {
			out.push(undoEntry{kind: undoDeleteV, t: t, rid: rid, v: &vUndo{}})
			return
		}
		m.begin = mark
		out.push(undoEntry{kind: undoInsert, t: t, rid: rid, v: &vUndo{}})
		out.push(undoEntry{kind: undoDeleteV, t: t, rid: rid, v: &vUndo{wasVers: true}})
		return
	}
	m.begin = mark
	if committed == nil {
		out.push(undoEntry{kind: undoInsert, t: t, rid: rid, v: &vUndo{}})
		return
	}
	// An updated row keeps the transaction's version in its slot; the
	// committed image goes onto the chain and its index keys come back.
	t.rekey(rid, t.Row(rid), committed, true)
	node := &rowVersion{end: mark, row: committed}
	m.older = node
	out.push(undoEntry{kind: undoUpdateV, t: t, rid: rid, v: &vUndo{node: node}})
}

// rekey moves row rid's index entries from version from to version to,
// touching only the keys that differ. keep leaves from's entries in place
// for the snapshots that still see that version (a versioned update); to's
// keys go in beside them (an add never lists a row twice under one key, so
// a value flipped away and back is safe).
func (t *Table) rekey(rid int, from, to []Value, keep bool) {
	for _, idx := range t.hashList {
		f, n := from[idx.col], to[idx.col]
		if compareValues(f, n) == 0 {
			continue
		}
		if !keep && !f.IsNull() {
			idx.rids.remove(f, rid)
		}
		if !n.IsNull() {
			idx.rids.add(n, rid)
		}
	}
	for _, oidx := range t.orderedList {
		fk, nk := oidx.keyFor(rid, from), oidx.keyFor(rid, to)
		if compareBKeys(fk, nk) == 0 {
			continue
		}
		if keep {
			oidx.tree.remove(nk)
		} else {
			oidx.tree.remove(fk)
		}
		oidx.tree.insert(oidx.owned(nk))
	}
}

// uniqueViolated reports whether a row other than exclude, as the writer
// sees it, already holds v in column ci. Uniqueness is a data invariant,
// not an index property — order planning's single-row and pinning elisions
// keep trusting uniqueCols after DropIndex (explicitly supported for
// ablation) — so enforcement must survive ablation too: it prefers the hash
// index, falls back to an ordered index led by the column, and finally
// scans the heap. Each candidate is read at the writer's snapshot: entries
// can belong to superseded versions, to rows another snapshot deleted, or
// (in a B+tree) to tombstones. The snapshot is the active write context's
// view, latest-committed when there is none (a physical-mode statement).
func (t *Table) uniqueViolated(ci int, v Value, exclude int) bool {
	sn := snapshot{ts: allTS}
	if w := t.db.writer; w != nil {
		sn = w.snap()
	}
	hit := func(rid int) bool {
		if rid == exclude {
			return false
		}
		row := t.visibleRow(rid, sn)
		return row != nil && compareValues(row[ci], v) == 0
	}
	for _, idx := range t.hashList {
		if idx.col != ci {
			continue
		}
		var one [1]int
		for _, rid := range idx.probe(v, &one) {
			if rid >= 0 && hit(rid) {
				return true
			}
		}
		return false
	}
	for _, oidx := range t.orderedList {
		if oidx.cols[0] != ci {
			continue
		}
		b := rangeBound{val: v, incl: true, set: true}
		for _, rid := range oidx.scanRange(nil, b, b, false, nil) {
			if hit(rid) {
				return true
			}
		}
		return false
	}
	for rid := range t.rows {
		if hit(rid) {
			return true
		}
	}
	return false
}

// Scan calls fn for every live row in rowid order — the current rows, with
// no snapshot filtering; fn returning false stops the scan. It reports the
// number of rows visited, and the paged-storage error when a page failed
// to fault (rows on pages that could not be read were skipped).
func (t *Table) Scan(fn func(rid int, row []Value) bool) (int, error) {
	var c rowCursor
	defer c.release()
	visited := 0
	for rid := range t.rows {
		row := c.rowAt(t, rid)
		if row == nil {
			continue
		}
		visited++
		if !fn(rid, row) {
			break
		}
	}
	return visited, t.db.pagedErr()
}
