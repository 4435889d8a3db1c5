package relational

import "errors"

// DBSnapshot is a copy-on-write-free snapshot of a database's table
// contents. Benchmarks use it to reset state between iterations without
// re-shredding documents; values are immutable (int64/string), so copying
// row slices suffices.
type DBSnapshot struct {
	tables map[string][][]Value
}

// Snapshot captures the current contents of every table. Schema objects
// (tables, indexes, triggers) are shared, not copied: Restore assumes the
// schema is unchanged since the snapshot.
func (db *DB) Snapshot() *DBSnapshot {
	db.readLock(nil)
	defer db.mu.RUnlock()
	s := &DBSnapshot{tables: make(map[string][][]Value, len(db.tables))}
	for key, t := range db.tables {
		// Versioned tables (an open transaction's marks, or chains kept
		// alive for a registered reader) are captured at the latest
		// committed state: uncommitted inserts become holes, uncommitted
		// deletes keep their committed version.
		rows := make([][]Value, len(t.rows))
		for i := range t.rows {
			// visibleRow faults an evicted paged row in by rid.
			r := t.visibleRow(i, snapshot{ts: allTS})
			if r == nil {
				continue
			}
			cp := make([]Value, len(r))
			copy(cp, r)
			rows[i] = cp
		}
		s.tables[key] = rows
	}
	return s
}

var (
	errRestoreDurable = errors.New("relational: Restore requires a memory DB (NewDB); a directory DB logs no reset")
	errRestoreOpenTxn = errors.New("relational: Restore requires no open transactions")
)

// Restore resets every snapshotted table of a memory DB to its captured
// contents and rebuilds its indexes; tables created after the snapshot are
// dropped. It refuses a directory DB, whose redo log and page files would
// miss the reset, and, like BulkLoad, any open transaction.
func (db *DB) Restore(s *DBSnapshot) error {
	if db.durable() {
		return errRestoreDurable
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.snaps) > 0 {
		return errRestoreOpenTxn
	}
	for key := range db.tables {
		if _, ok := s.tables[key]; !ok {
			delete(db.tables, key)
		}
	}
	for key, snapRows := range s.tables {
		t := db.tables[key]
		if t == nil {
			continue // table was dropped since the snapshot; leave dropped
		}
		rows := make([][]Value, len(snapRows))
		live := 0
		for i, r := range snapRows {
			if r == nil {
				continue
			}
			cp := make([]Value, len(r))
			copy(cp, r)
			rows[i] = cp
			live++
		}
		// With no transaction open, vacuum has returned every table to
		// single-version form, so no version state outlives its rows.
		t.rows = rows
		t.live = live
		// Memory rows never fault, so neither rebuild can fail.
		for _, idx := range t.hashList {
			_ = idx.rebuild(t)
		}
		for _, oidx := range t.orderedList {
			_ = oidx.rebuild(t)
		}
		// Access plans cached before the restore are rebuilt against the
		// restored table.
		t.indexEpoch++
	}
	return nil
}
