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

	rows  [][]Value // nil entry = deleted
	live  int
	index map[string]*hashIndex // keyed by lower-case column name
	// ordered holds the B+tree indexes, keyed by their canonical
	// comma-joined column list; orderedList caches them sorted by that key
	// for allocation-free iteration on the planning path (index.go).
	ordered     map[string]*orderedIndex
	orderedList []*orderedIndex
	// uniqueCols marks columns holding at most one row per value — the
	// auto-indexed tuple-id column, whose uniqueness the shredder
	// guarantees. An equality on a unique column pins a join level to a
	// single row, which order planning exploits (order.go).
	uniqueCols map[int]bool
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
	// rowCursor, Row or liveAt, and mutations call its pg* hooks.
	pg *pagedTable
}

// writerCtx returns the active write context when this table's mutations
// must take the versioned form (an open snapshot could observe intermediate
// state), nil for plain physical writes. db.writer is set for every explicit
// transaction statement, and for autocommit statements only while explicit
// snapshots are registered.
func (t *Table) writerCtx() *writeCtx {
	return t.db.writer
}

// writeSnap is the snapshot the executing writer statement reads at — its
// write context's view when one is active, latest-committed otherwise.
func (t *Table) writeSnap() snapshot {
	if w := t.writerCtx(); w != nil {
		return w.snap()
	}
	return snapshot{ts: allTS}
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

// Insert appends a row, coercing values to column types, and returns its
// rowid.
func (t *Table) Insert(vals []Value) (int, error) {
	if len(vals) != len(t.Schema.Columns) {
		return 0, fmt.Errorf("relational: table %s expects %d values, got %d", t.Name, len(t.Schema.Columns), len(vals))
	}
	w := t.writerCtx()
	if w != nil {
		if err := t.db.claimIntentLocked(t); err != nil {
			return 0, err
		}
	}
	row := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := coerce(v, t.Schema.Columns[i].Type)
		if err != nil {
			return 0, fmt.Errorf("relational: table %s column %s: %w", t.Name, t.Schema.Columns[i].Name, err)
		}
		row[i] = cv
	}
	// Unique key columns are enforced, not assumed: order planning elides
	// sorts on the premise that an id equality pins one row, so a
	// duplicate must fail loudly here rather than corrupt orderings later.
	for ci := range t.uniqueCols {
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
	if w != nil {
		// Versioned insert: the row is physically present but marked, so
		// only its own transaction sees it until commit.
		t.ensureMeta()
		t.meta[rid].begin = markBit | w.txnID
		t.vers++
		if t.db.undo != nil {
			t.db.undo.recordInsertV(t, rid)
		}
	} else if t.db.undo != nil {
		t.db.undo.recordInsert(t, rid)
	}
	for _, idx := range t.index {
		if v := row[idx.col]; !v.IsNull() {
			idx.add(v, rid)
		}
	}
	for _, oidx := range t.orderedList {
		oidx.tree.insert(oidx.keyFor(rid, row))
	}
	return rid, nil
}

// Delete tombstones a row and unindexes it. It returns the deleted row's
// values for trigger OLD bindings. In versioned mode the row and its index
// entries stay physically in place — only the version metadata records the
// deletion, and vacuum removes the row once no snapshot can see it.
func (t *Table) Delete(rid int) ([]Value, error) {
	row := t.Row(rid)
	if row == nil {
		return nil, fmt.Errorf("relational: table %s has no row %d", t.Name, rid)
	}
	if w := t.writerCtx(); w != nil {
		if err := t.db.claimIntentLocked(t); err != nil {
			return nil, err
		}
		t.ensureMeta()
		m := &t.meta[rid]
		wasVers := m.begin != 0 || m.end != 0 || m.older != nil
		m.end = markBit | w.txnID
		if !wasVers {
			t.vers++
		}
		t.live--
		if t.db.undo != nil {
			t.db.undo.recordDeleteV(t, rid, wasVers)
		}
		return row, nil
	}
	// Dirty the page before touching the slot (paged mode): a dirty page
	// cannot evict, so the nil written below stays the slot's value.
	t.pgMark(rid)
	if t.db.undo != nil {
		t.db.undo.recordDelete(t, rid, row)
	}
	for _, idx := range t.index {
		if v := row[idx.col]; !v.IsNull() {
			idx.remove(v, rid)
		}
	}
	t.rows[rid] = nil
	t.pgDrop(rid)
	t.live--
	// Ordered indexes tombstone lazily: readers skip entries whose row is
	// gone, and the next ordered read compacts the tree once stale entries
	// outnumber live ones (index.go) — bulk deletes never pay a descent.
	for _, oidx := range t.orderedList {
		oidx.stale++
	}
	return row, nil
}

// Update overwrites the given columns of a row, maintaining indexes.
// Ordered-index keys are unlinked before the row mutates and re-inserted
// after, so a multi-column assignment moves each B+tree entry exactly once.
func (t *Table) Update(rid int, cols []int, vals []Value) error {
	if t.Row(rid) == nil {
		return fmt.Errorf("relational: table %s has no row %d", t.Name, rid)
	}
	if w := t.writerCtx(); w != nil {
		return t.updateVersioned(rid, cols, vals, w)
	}
	row := t.rows[rid]
	// Dirty the page before mutating in place: unique probes below can
	// fault other pages in, and the eviction pressure they apply must not
	// take the page under this row (dirty pages never evict).
	t.pgMark(rid)
	if t.db.undo != nil {
		// The pre-image restores every assigned column on rollback — a
		// coercion error partway through the SET list leaves earlier
		// assignments applied here, and the statement-level rollback is
		// what reverses them.
		t.db.undo.recordUpdate(t, rid, row)
	}
	var touched []*orderedIndex
	for _, oidx := range t.orderedList {
		for _, ci := range cols {
			if oidx.covers(ci) {
				oidx.tree.remove(oidx.keyFor(rid, row))
				touched = append(touched, oidx)
				break
			}
		}
	}
	// Re-key under whatever state the row ends up in — a coercion error
	// leaves earlier assignments applied, and the index must track the row.
	defer func() {
		for _, oidx := range touched {
			oidx.tree.insert(oidx.keyFor(rid, row))
		}
	}()
	for i, ci := range cols {
		cv, err := coerce(vals[i], t.Schema.Columns[ci].Type)
		if err != nil {
			return fmt.Errorf("relational: table %s column %s: %w", t.Name, t.Schema.Columns[ci].Name, err)
		}
		if t.uniqueCols[ci] && !cv.IsNull() && t.uniqueViolated(ci, cv, rid) {
			return fmt.Errorf("relational: duplicate value %s for unique column %s.%s",
				valueString(cv), t.Name, t.Schema.Columns[ci].Name)
		}
		for _, idx := range t.index {
			if idx.col != ci {
				continue
			}
			if old := row[ci]; !old.IsNull() {
				idx.remove(old, rid)
			}
			if !cv.IsNull() {
				idx.add(cv, rid)
			}
		}
		row[ci] = cv
	}
	// Paged: a row that grew past page capacity can never be flushed.
	// The undo pre-image recorded above restores the row on the
	// statement-level rollback this error triggers.
	if err := t.pgRowFits(rid, row); err != nil {
		return err
	}
	return nil
}

// updateVersioned is Update's MVCC form: instead of overwriting in place
// behind the reader lock, it pushes the pre-image onto the row's version
// chain, marks the current row with the writer's transaction id, and adds
// (never removes) index entries — old-value entries stay live for snapshot
// readers until vacuum reclaims them.
func (t *Table) updateVersioned(rid int, cols []int, vals []Value, w *writeCtx) error {
	if err := t.db.claimIntentLocked(t); err != nil {
		return err
	}
	row := t.Row(rid)
	t.pgMark(rid)
	t.ensureMeta()
	m := &t.meta[rid]
	wasVers := m.begin != 0 || m.end != 0 || m.older != nil
	mark := markBit | w.txnID
	pre := make([]Value, len(row))
	copy(pre, row)
	node := &rowVersion{begin: m.begin, end: mark, row: pre, older: m.older}
	m.begin = mark
	m.older = node
	if !wasVers {
		t.vers++
	}
	if t.db.undo != nil {
		t.db.undo.recordUpdateV(t, rid, node, wasVers)
	}
	for i, ci := range cols {
		cv, err := coerce(vals[i], t.Schema.Columns[ci].Type)
		if err != nil {
			return fmt.Errorf("relational: table %s column %s: %w", t.Name, t.Schema.Columns[ci].Name, err)
		}
		if t.uniqueCols[ci] && !cv.IsNull() && t.uniqueViolated(ci, cv, rid) {
			return fmt.Errorf("relational: duplicate value %s for unique column %s.%s",
				valueString(cv), t.Name, t.Schema.Columns[ci].Name)
		}
		for _, idx := range t.index {
			if idx.col != ci {
				continue
			}
			if !cv.IsNull() && compareValues(cv, row[ci]) != 0 {
				idx.addIfAbsent(cv, rid)
			}
		}
		row[ci] = cv
	}
	// The old B+tree keys stay for snapshot readers; insert the row's new
	// key unless some version already carries it (remove-then-insert keeps
	// the entry set exact — a key can appear only once).
	for _, oidx := range t.orderedList {
		nk := oidx.keyFor(rid, row)
		if compareBKeys(nk, oidx.keyFor(rid, pre)) != 0 {
			oidx.tree.remove(nk)
			oidx.tree.insert(nk)
		}
	}
	// Paged: a row that grew past page capacity can never be flushed; the
	// undo record above reverses the version push on rollback.
	if err := t.pgRowFits(rid, row); err != nil {
		return err
	}
	return nil
}

// uniqueViolated reports whether a live row other than exclude already
// holds v in column ci. Uniqueness is a data invariant, not an index
// property — order planning's single-row and pinning elisions keep trusting
// uniqueCols after DropIndex (explicitly supported for ablation) — so
// enforcement must survive ablation too: it prefers the hash index, falls
// back to an ordered index led by the column, and finally scans the heap.
// Versioned tables route through the visibility-aware form: index entries
// can belong to superseded versions or to rows another snapshot deleted.
func (t *Table) uniqueViolated(ci int, v Value, exclude int) bool {
	if t.vers > 0 {
		return t.uniqueViolatedVers(ci, v, exclude)
	}
	return t.uniqueViolatedPhys(ci, v, exclude)
}

func (t *Table) uniqueViolatedVers(ci int, v Value, exclude int) bool {
	sn := t.writeSnap()
	hit := func(rid int) bool {
		if rid == exclude {
			return false
		}
		row := t.visibleRow(rid, sn)
		return row != nil && compareValues(row[ci], v) == 0
	}
	for _, idx := range t.index {
		if idx.col != ci {
			continue
		}
		for _, rid := range idx.probe(v) {
			if hit(rid) {
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

func (t *Table) uniqueViolatedPhys(ci int, v Value, exclude int) bool {
	for _, idx := range t.index {
		if idx.col != ci {
			continue
		}
		for _, rid := range idx.probe(v) {
			if rid != exclude {
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
			// The tree tombstones lazily; skip entries whose row is gone.
			if rid != exclude && t.liveAt(rid) {
				return true
			}
		}
		return false
	}
	// A failed page fault poisons the DB and fails the next statement, so
	// the scan's error needs no handling here.
	found := false
	_, _ = t.Scan(func(rid int, row []Value) bool {
		found = rid != exclude && compareValues(row[ci], v) == 0
		return !found
	})
	return found
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
