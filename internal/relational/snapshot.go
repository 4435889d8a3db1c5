package relational

// DBSnapshot is a copy-on-write-free snapshot of a database's table
// contents. Benchmarks use it to reset state between iterations without
// re-shredding documents; values are immutable (int64/string), so copying
// row slices suffices.
type DBSnapshot struct {
	tables map[string]tableSnap
}

type tableSnap struct {
	rows [][]Value
	live int
	// ordered captures each B+tree index's live entries in key order
	// (entry values are immutable, so they are shared, not copied). A
	// restore bulk-rebuilds the tree from this without re-sorting or
	// per-key allocation — benchmarks restore between every iteration.
	ordered map[string][]bkey
	// hashKeys holds each hash index's key count by column position, so
	// a restore sizes the rebuilt index up front instead of growing it.
	hashKeys []int
}

// Snapshot captures the current contents of every table. Schema objects
// (tables, indexes, triggers) are shared, not copied: Restore assumes the
// schema is unchanged since the snapshot.
func (db *DB) Snapshot() *DBSnapshot {
	db.readLock(nil)
	defer db.mu.RUnlock()
	s := &DBSnapshot{tables: make(map[string]tableSnap, len(db.tables))}
	for key, t := range db.tables {
		// Versioned tables (an open transaction's marks, or chains kept
		// alive for a registered reader) are captured at the latest
		// committed state: uncommitted inserts become holes, uncommitted
		// deletes keep their committed version.
		vers := t.vers > 0
		rows := make([][]Value, len(t.rows))
		live := 0
		for i := range t.rows {
			// visibleRow faults an evicted paged row in by rid.
			r := t.visibleRow(i, snapshot{ts: allTS})
			if r == nil {
				continue
			}
			cp := make([]Value, len(r))
			copy(cp, r)
			rows[i] = cp
			live++
		}
		if !vers {
			live = t.live
		}
		snap := tableSnap{rows: rows, live: live, hashKeys: make([]int, len(t.Schema.Columns))}
		for _, idx := range t.hashList {
			snap.hashKeys[idx.col] = idx.rids.keys.len()
		}
		if len(t.ordered) > 0 && !vers {
			// Single-version fast path only: versioned trees may hold
			// entries for superseded versions, so Restore rebuilds those
			// from the captured rows instead.
			snap.ordered = make(map[string][]bkey, len(t.ordered))
			for name, oidx := range t.ordered {
				snap.ordered[name] = oidx.tree.collectLive(t, make([]bkey, 0, t.live))
			}
		}
		s.tables[key] = snap
	}
	return s
}

// Restore resets every snapshotted table to its captured contents and
// rebuilds its indexes. Tables created after the snapshot are dropped.
func (db *DB) Restore(s *DBSnapshot) {
	if db.pool != nil {
		// Exclude an in-flight checkpoint: its durable phase runs
		// outside db.mu and indexes pg.pages by captured page id, which
		// pgRebuild below invalidates wholesale.
		db.pagedCkptMu.Lock()
		defer db.pagedCkptMu.Unlock()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for key, t := range db.tables {
		if _, ok := s.tables[key]; !ok {
			delete(db.tables, key)
			t.pgGone(true)
		}
	}
	for key, snap := range s.tables {
		t := db.tables[key]
		if t == nil {
			continue // table was dropped since the snapshot; leave dropped
		}
		rows := make([][]Value, len(snap.rows))
		for i, r := range snap.rows {
			if r == nil {
				continue
			}
			cp := make([]Value, len(r))
			copy(cp, r)
			rows[i] = cp
		}
		t.rows = rows
		t.live = snap.live
		// Paged: the row slice was replaced wholesale; rebuild the
		// directory and re-place every row onto fresh (dirty) pages.
		t.pgRebuild()
		// Restored rows are single-version by construction; drop any
		// version metadata left over from the restored-over state.
		t.meta = nil
		t.vers = 0
		t.intentTxn = 0
		t.lastCommit = 0
		// Every restored row sits on a resident dirty page, so neither
		// index rebuild below can fail to fault.
		for _, idx := range t.hashList {
			_ = idx.rebuild(t, snap.hashKeys[idx.col])
		}
		for name, oidx := range t.ordered {
			if entries, ok := snap.ordered[name]; ok {
				oidx.tree = newBTreeFromSorted(entries)
				oidx.stale = 0
				continue
			}
			// Index created after the snapshot: rebuild from the rows.
			_ = oidx.rebuild(t)
		}
		// Access plans cached before the restore are rebuilt against the
		// restored table.
		t.indexEpoch++
	}
}
