package relational

import (
	"fmt"
	"sync"
	"time"
)

// Transactions. The paper's §6.3 execution model requires an update
// statement to behave atomically: bindings are computed over the unmodified
// database, then sub-operations apply — so a failure discovered while a
// sub-operation executes must leave no trace of the ones before it. The
// engine gets that from this layer: an undo log records every row mutation
// (insert, delete, update) with enough of a pre-image to reverse it, and a
// transaction — explicit via Begin/BEGIN or the implicit one wrapping every
// top-level Exec — applies the log backwards on rollback, restoring rows,
// live counts, hash buckets, and B+tree entries.
//
// Undo logging was chosen over copy-on-write table versions: mutations stay
// in place (no per-statement table copies, so bulk loads and renumber
// UPDATEs keep their PR 1/PR 2 cost), and the log's size is proportional to
// the statement's write set, not the table. Readers must not observe a
// mutation epoch in progress; autocommit statements get that from the
// writer lock alone, while explicit transactions — which release the lock
// between statements — additionally mark their writes with their
// transaction id so concurrent snapshot readers resolve to the pre-image on
// the version chain instead (mvcc.go). The undo log doubles as the version
// chain's spine: rollback unmarks versions rather than replaying pre-images
// blindly, and commit flips the marks to the allocated commit stamp.

// errTxDone is returned by operations on a finished transaction.
var errTxDone = fmt.Errorf("relational: transaction has already been committed or rolled back")

// Session is the statement-execution surface shared by a DB in autocommit
// mode and an open Tx. Code that must run inside a caller-supplied
// transaction — the engine's §6.3 execution phase — takes a Session, so the
// same helpers serve both transactional and autocommit callers.
type Session interface {
	Exec(sql string) (int, error)
	Query(sql string) (*Rows, error)
	QueryEach(sql string, fn func(row []Value) error) ([]string, error)
	Prepare(sql string) (*Prepared, error)
	ExecPrepared(p *Prepared, args ...Value) (int, error)
	QueryPrepared(p *Prepared, args ...Value) (*Rows, error)
}

var (
	_ Session = (*DB)(nil)
	_ Session = (*Tx)(nil)
)

// ---- undo log ----

type undoKind uint8

const (
	// undoInsert reverses a row insertion: unindex and drop the row.
	undoInsert undoKind = iota
	// undoDelete reverses a tombstoning: relink the row and its index
	// entries.
	undoDelete
	// undoUpdate reverses an in-place overwrite from the recorded pre-image.
	undoUpdate
	// undoDDL reverses a schema change (create/drop of tables, indexes,
	// triggers) via a recorded closure. DDL is rare, so the per-entry
	// closure allocation stays off the row-mutation hot path.
	undoDDL
	// Versioned forms (mvcc.go): the mutation marked row versions instead of
	// (or in addition to) mutating physically, and undo must clear the marks
	// and restore the chain. Entries carry v != nil.
	undoInsertV
	undoDeleteV
	undoUpdateV
)

// undoEntry is one reversible mutation. For undoDelete, row is the removed
// row slice itself (detached from the table, never mutated afterwards); for
// undoUpdate it is a pre-image copy; for undoDDL, fn restores the schema.
type undoEntry struct {
	kind undoKind
	t    *Table
	rid  int
	row  []Value
	fn   func()
	// v carries the version-chain bookkeeping of a versioned mutation
	// (non-nil exactly for the *V kinds); commit stamping keys off it.
	v *vUndo
}

// vUndo is the versioned-mutation undo payload. node is the chain node an
// update pushed (its begin/older restore the pre-update metadata); wasVers
// reports whether the row already had non-trivial metadata before this
// mutation (false means undo returns the row to plain form and decrements
// the table's version count).
type vUndo struct {
	node    *rowVersion
	wasVers bool
}

// undoLog accumulates a transaction's reversible mutations in order.
type undoLog struct {
	entries []undoEntry
	// touched records mutated tables for commit-time ordered-index
	// compaction (deletes only tombstone B+tree entries; see commit).
	touched map[*Table]struct{}
	// redo collects the transaction's successful logged statements for the
	// commit record (durable.go). A statement's redo entry is appended only
	// after it succeeds, so statement-level rollback never needs to unwind
	// it; a whole-transaction rollback discards the log, redo included.
	redo []redoStmt
}

func newUndoLog() *undoLog { return &undoLog{} }

func (l *undoLog) note(t *Table) {
	if l.touched == nil {
		l.touched = make(map[*Table]struct{}, 4)
	}
	l.touched[t] = struct{}{}
}

func (l *undoLog) recordInsert(t *Table, rid int) {
	l.note(t)
	l.entries = append(l.entries, undoEntry{kind: undoInsert, t: t, rid: rid})
}

func (l *undoLog) recordDelete(t *Table, rid int, row []Value) {
	l.note(t)
	l.entries = append(l.entries, undoEntry{kind: undoDelete, t: t, rid: rid, row: row})
}

func (l *undoLog) recordUpdate(t *Table, rid int, row []Value) {
	l.note(t)
	pre := make([]Value, len(row))
	copy(pre, row)
	l.entries = append(l.entries, undoEntry{kind: undoUpdate, t: t, rid: rid, row: pre})
}

func (l *undoLog) recordDDL(fn func()) {
	l.entries = append(l.entries, undoEntry{kind: undoDDL, fn: fn})
}

func (l *undoLog) recordInsertV(t *Table, rid int) {
	l.note(t)
	l.entries = append(l.entries, undoEntry{kind: undoInsertV, t: t, rid: rid, v: &vUndo{}})
}

func (l *undoLog) recordDeleteV(t *Table, rid int, wasVers bool) {
	l.note(t)
	l.entries = append(l.entries, undoEntry{kind: undoDeleteV, t: t, rid: rid, v: &vUndo{wasVers: wasVers}})
}

func (l *undoLog) recordUpdateV(t *Table, rid int, node *rowVersion, wasVers bool) {
	l.note(t)
	l.entries = append(l.entries, undoEntry{kind: undoUpdateV, t: t, rid: rid, v: &vUndo{node: node, wasVers: wasVers}})
}

// mark returns a position to roll back to — the statement boundary inside a
// multi-statement transaction.
func (l *undoLog) mark() int { return len(l.entries) }

// rollbackTo applies entries beyond mark in reverse, restoring the tables
// to their state at the mark. Caller holds the writer lock.
func (l *undoLog) rollbackTo(mark int) {
	for i := len(l.entries) - 1; i >= mark; i-- {
		e := l.entries[i]
		switch e.kind {
		case undoInsert:
			row := e.t.rows[e.rid]
			for _, idx := range e.t.index {
				if v := row[idx.col]; !v.IsNull() {
					idx.remove(v, e.rid)
				}
			}
			for _, oidx := range e.t.orderedList {
				oidx.tree.remove(oidx.keyFor(e.rid, row))
			}
			e.t.rows[e.rid] = nil
			e.t.pgDrop(e.rid)
			e.t.live--
			// Inserts append, and reverse application reaches them in
			// reverse rid order, so truncating restores the exact rowid
			// sequence (future inserts reuse the same rids as if the
			// statement never ran).
			if e.rid == len(e.t.rows)-1 {
				e.t.rows = e.t.rows[:e.rid]
				e.t.pgTruncate(e.rid)
			}
		case undoDelete:
			e.t.rows[e.rid] = e.row
			// Re-register the resurrected rid with the paged directory (its
			// delete marked it dead); it lands on the current fill page.
			e.t.pgPlace(e.rid, e.row)
			e.t.live++
			for _, idx := range e.t.index {
				if v := e.row[idx.col]; !v.IsNull() {
					idx.add(v, e.rid)
				}
			}
			// Deletion tombstones B+tree entries lazily (the key usually
			// still sits in the tree). An index created mid-transaction is
			// the exception — it was built from live rows only — so probe
			// via remove-then-insert, which is exact either way.
			for _, oidx := range e.t.orderedList {
				k := oidx.keyFor(e.rid, e.row)
				present := oidx.tree.remove(k)
				oidx.tree.insert(k)
				if present && oidx.stale > 0 {
					oidx.stale--
				}
			}
		case undoUpdate:
			cur := e.t.rows[e.rid]
			for _, oidx := range e.t.orderedList {
				ck, pk := oidx.keyFor(e.rid, cur), oidx.keyFor(e.rid, e.row)
				if compareBKeys(ck, pk) != 0 {
					oidx.tree.remove(ck)
					oidx.tree.insert(pk)
				}
			}
			for _, idx := range e.t.index {
				cv, pv := cur[idx.col], e.row[idx.col]
				if cv == pv {
					continue
				}
				if !cv.IsNull() {
					idx.remove(cv, e.rid)
				}
				if !pv.IsNull() {
					idx.add(pv, e.rid)
				}
			}
			// Copy the pre-image back in place, preserving row identity.
			copy(cur, e.row)
		case undoInsertV:
			// A marked insert is physically present but visible only to its
			// own transaction; undo removes it exactly like undoInsert and
			// clears the version metadata.
			row := e.t.rows[e.rid]
			for _, idx := range e.t.index {
				if v := row[idx.col]; !v.IsNull() {
					idx.remove(v, e.rid)
				}
			}
			for _, oidx := range e.t.orderedList {
				oidx.tree.remove(oidx.keyFor(e.rid, row))
			}
			e.t.rows[e.rid] = nil
			e.t.pgDrop(e.rid)
			e.t.live--
			e.t.meta[e.rid] = rowMeta{}
			e.t.vers--
			if e.rid == len(e.t.rows)-1 {
				e.t.rows = e.t.rows[:e.rid]
				e.t.pgTruncate(e.rid)
				if len(e.t.meta) > len(e.t.rows) {
					e.t.meta = e.t.meta[:len(e.t.rows)]
				}
			}
		case undoDeleteV:
			// A versioned delete only marked the row's end; clearing the mark
			// resurrects it (row and index entries never moved).
			e.t.meta[e.rid].end = 0
			e.t.live++
			if !e.v.wasVers {
				e.t.vers--
			}
		case undoUpdateV:
			// Restore the pre-update metadata from the chain node the update
			// pushed, drop the index entries only the undone newest version
			// added (entries carried by a surviving version stay), and copy
			// the pre-image back in place, preserving row identity.
			cur := e.t.rows[e.rid]
			node := e.v.node
			survivors := [][]Value{node.row}
			for v := node.older; v != nil; v = v.older {
				survivors = append(survivors, v.row)
			}
			e.t.dropVersionKeys(e.rid, cur, survivors)
			copy(cur, node.row)
			e.t.meta[e.rid] = rowMeta{begin: node.begin, older: node.older}
			if !e.v.wasVers {
				e.t.vers--
			}
		case undoDDL:
			e.fn()
		}
	}
	l.entries = l.entries[:mark]
}

// commit discards the log and compacts the touched tables' ordered indexes
// whose lazy tombstones now outnumber live rows. Compaction used to run on
// the read path; it moved here because reads now run under a shared lock
// (mutating a tree there would race) and because compacting mid-transaction
// would drop tombstoned entries the undo log still counts on. Staleness only
// grows through deletes, and every delete touches its table, so the
// threshold is always observed at some commit. Caller holds the writer lock.
func (l *undoLog) commit() {
	for t := range l.touched {
		// Versioned tables defer compaction: rebuild() keeps live rows only,
		// which would drop chain-version keys open snapshots still probe.
		// Vacuum removes tree entries eagerly on such tables instead, so
		// stale never grows while versions exist (mvcc.go).
		if t.vers > 0 {
			continue
		}
		for _, oidx := range t.orderedList {
			if oidx.stale > t.live {
				// A failed page fault poisons the DB; the next statement
				// reports it.
				_ = oidx.rebuild(t)
			}
		}
	}
	l.entries = nil
}

// ---- transactions ----

// Tx is an open transaction. It takes an MVCC snapshot at Begin and holds
// the database's writer lock only per statement and for the commit critical
// section — never between statements — so concurrent DB.Query readers keep
// running against committed state while the transaction sits open
// (mvcc.go). Its reads observe the snapshot plus its own uncommitted
// writes; its writes take per-table write intents, and an overlapping
// writer aborts first-committer-wins. Tx methods serialize on an internal
// mutex, so goroutines that join a SQL-level transaction through
// DB.Exec/DB.Query cannot race the transaction's own statements — they
// interleave into it.
type Tx struct {
	db  *DB
	log *undoLog
	// id is the transaction's mark identity; snapTS the commit stamp its
	// snapshot was taken at. wctx is the write context installed as
	// db.writer for the duration of each statement.
	id     uint64
	snapTS uint64
	wctx   writeCtx
	// sqlLevel marks a transaction opened by a SQL BEGIN through DB.Exec:
	// subsequent DB.Exec/Query calls join it (single-session semantics,
	// like one SQLite connection) until COMMIT/ROLLBACK.
	sqlLevel bool
	// mu serializes the transaction's statements; done (guarded by mu)
	// marks it finished.
	mu   sync.Mutex
	done bool
}

// Begin opens an explicit transaction: a short critical section registers
// its snapshot, after which the writer lock is released — concurrent
// readers and other writers proceed, isolated from this transaction's
// writes by version visibility (mvcc.go).
func (db *DB) Begin() *Tx {
	db.mu.Lock()
	tx := db.beginLocked(false)
	db.mu.Unlock()
	return tx
}

// beginLocked installs a fresh transaction: allocates its id, snapshots the
// current commit stamp, and registers the snapshot (which switches writers
// into versioned mode until it unregisters). Caller holds the writer lock.
func (db *DB) beginLocked(sqlLevel bool) *Tx {
	db.nextTxn++
	tx := &Tx{db: db, log: newUndoLog(), sqlLevel: sqlLevel}
	tx.id = db.nextTxn
	tx.snapTS = db.commitTS
	tx.wctx = writeCtx{txnID: tx.id, snapTS: tx.snapTS, explicit: true}
	db.snaps[tx.id] = tx.snapTS
	db.stats.SnapshotsTaken.Add(1)
	if sqlLevel {
		db.sqlTx.Store(tx)
	}
	return tx
}

// Exec executes a statement inside the transaction. A statement that fails
// rolls back to its own start (statement atomicity); the transaction stays
// open. COMMIT and ROLLBACK statements finish the transaction.
func (tx *Tx) Exec(sql string) (int, error) {
	stmt, args, _, err := tx.db.prepared(sql)
	if err != nil {
		return 0, err
	}
	switch stmt.(type) {
	case *BeginStmt:
		// Check done first: a joiner racing the commit must get errTxDone
		// (which DB.Exec falls through on, opening a fresh transaction),
		// not a spurious already-open error.
		tx.mu.Lock()
		done := tx.done
		tx.mu.Unlock()
		if done {
			return 0, errTxDone
		}
		return 0, fmt.Errorf("relational: transaction already open")
	case *CommitStmt:
		return 0, tx.Commit()
	case *RollbackStmt:
		return 0, tx.Rollback()
	}
	return tx.execStmt(stmt, args, sql, nil)
}

// execStmt runs one parsed statement with statement-level atomicity inside
// the open transaction. src and logArgs are the statement's redo form: the
// raw text (logArgs nil) or the `?` shape plus its bound arguments.
func (tx *Tx) execStmt(stmt Stmt, args []Value, src string, logArgs []Value) (int, error) {
	qt := tx.db.traceBegin("tx-exec", src)
	n, err := tx.execStmtSpan(stmt, args, src, logArgs, qt)
	if err == errTxDone {
		// The caller falls through to a fresh autocommit execution, which
		// opens its own span; this one never ran a statement.
		return n, err
	}
	tx.db.traceFinish(qt, n, err)
	return n, err
}

// execStmtSpan is execStmt's lock-holding body; the trace dispatch stays
// outside it so hooks never run under tx.mu or the writer lock.
func (tx *Tx) execStmtSpan(stmt Stmt, args []Value, src string, logArgs []Value, qt *QueryTrace) (int, error) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return 0, errTxDone
	}
	db := tx.db
	db.stats.Statements.Add(1)
	// The writer lock is held per statement: the transaction's undo log and
	// write context install for the duration of execution, then come back
	// out so readers and other writers can run between this transaction's
	// statements.
	lockStart := time.Now()
	db.mu.Lock()
	db.met.lockWait.ObserveSince(lockStart)
	defer db.mu.Unlock()
	if qt != nil {
		qt.LockWait = time.Since(lockStart)
	}
	if db.isNoopLocked(stmt) {
		return 0, nil
	}
	var execStart time.Time
	if qt != nil {
		execStart = time.Now()
	}
	mark := tx.log.mark()
	db.undo = tx.log
	db.writer = &tx.wctx
	env := newEnv(nil)
	env.args = args
	env.snap = snapshot{ts: tx.snapTS, self: tx.id}
	n, err := db.execStmt(stmt, env)
	db.undo = nil
	db.writer = nil
	if qt != nil {
		qt.Execute = time.Since(execStart)
	}
	if err != nil {
		tx.log.rollbackTo(mark)
		return 0, err
	}
	if tx.db.durable() {
		if logged, note := classifyStmt(stmt); logged {
			// Copy the argument slice: the commit record is only encoded at
			// Commit, and a caller reusing its args buffer between
			// ExecPrepared and Commit must not rewrite logged history.
			var cp []Value
			if len(logArgs) > 0 {
				cp = append(cp, logArgs...)
			}
			tx.log.redo = append(tx.log.redo, redoStmt{sql: src, args: cp, note: note})
		}
	}
	return n, nil
}

// Query executes a SELECT inside the transaction, observing its uncommitted
// writes.
func (tx *Tx) Query(sql string) (*Rows, error) {
	stmt, args, _, err := tx.db.prepared(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("relational: Query requires a SELECT, got %T", stmt)
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, errTxDone
	}
	tx.db.stats.Statements.Add(1)
	tx.db.mu.RLock()
	defer tx.db.mu.RUnlock()
	env := newEnv(nil)
	env.args = args
	env.snap = snapshot{ts: tx.snapTS, self: tx.id}
	return tx.db.execSelect(sel, env)
}

// QueryEach streams a SELECT's rows inside the transaction. Like
// DB.QueryEach, the row slice is reused between fn calls; copy to retain.
func (tx *Tx) QueryEach(sql string, fn func(row []Value) error) ([]string, error) {
	stmt, args, _, err := tx.db.prepared(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("relational: QueryEach requires a SELECT, got %T", stmt)
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, errTxDone
	}
	tx.db.stats.Statements.Add(1)
	tx.db.mu.RLock()
	defer tx.db.mu.RUnlock()
	env := newEnv(nil)
	env.args = args
	env.snap = snapshot{ts: tx.snapTS, self: tx.id}
	return tx.db.streamSelect(sel, env, fn)
}

// Prepare parses a statement for repeated execution. Parsing takes no data
// locks, so it is safe inside the transaction; execute the result through
// ExecPrepared/QueryPrepared to stay inside it.
func (tx *Tx) Prepare(sql string) (*Prepared, error) { return tx.db.Prepare(sql) }

// ExecPrepared runs a prepared statement inside the transaction.
func (tx *Tx) ExecPrepared(p *Prepared, args ...Value) (int, error) {
	if p.db != tx.db {
		return 0, fmt.Errorf("relational: prepared statement belongs to a different DB")
	}
	if len(args) != p.nparams {
		return 0, fmt.Errorf("relational: prepared statement takes %d args, got %d", p.nparams, len(args))
	}
	return tx.execStmt(p.stmt, args, p.src, args)
}

// QueryPrepared runs a prepared SELECT inside the transaction.
func (tx *Tx) QueryPrepared(p *Prepared, args ...Value) (*Rows, error) {
	if p.db != tx.db {
		return nil, fmt.Errorf("relational: prepared statement belongs to a different DB")
	}
	sel, ok := p.stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("relational: Query requires a SELECT, got %T", p.stmt)
	}
	if len(args) != p.nparams {
		return nil, fmt.Errorf("relational: prepared statement takes %d args, got %d", p.nparams, len(args))
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return nil, errTxDone
	}
	tx.db.stats.Statements.Add(1)
	tx.db.mu.RLock()
	defer tx.db.mu.RUnlock()
	env := newEnv(nil)
	env.args = args
	env.snap = snapshot{ts: tx.snapTS, self: tx.id}
	return tx.db.execSelect(sel, env)
}

// Commit makes the transaction's effects permanent. Under the writer lock
// it allocates the commit stamp, flips the transaction's uncommitted marks
// to it, releases its write intents, unregisters its snapshot, piggybacks a
// vacuum pass, and appends the stamped commit record (log order = commit
// order); the fsync wait happens after release, so readers unblocked by the
// commit never wait for the disk.
func (tx *Tx) Commit() error {
	start := time.Now()
	qt := tx.db.traceBegin("tx-commit", "COMMIT")
	err := tx.commitSpan(qt, start)
	if err == errTxDone {
		return err
	}
	tx.db.traceFinish(qt, 0, err)
	return err
}

// commitSpan is Commit's body; trace dispatch stays outside the locks.
func (tx *Tx) commitSpan(qt *QueryTrace, start time.Time) error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return errTxDone
	}
	tx.done = true
	db := tx.db
	lockStart := time.Now()
	db.mu.Lock()
	db.met.lockWait.ObserveSince(lockStart)
	if qt != nil {
		qt.LockWait = time.Since(lockStart)
	}
	commitStart := time.Now()
	stamp := db.stampCommitLocked(tx.log, &tx.wctx)
	db.releaseIntentsLocked(&tx.wctx)
	delete(db.snaps, tx.id)
	db.vacuumPendingLocked()
	tx.log.commit()
	lsn, werr := db.applyRedoLocked(tx.log.redo, stamp)
	if tx.sqlLevel {
		db.sqlTx.Store(nil)
	}
	if qt != nil {
		qt.Commit = time.Since(commitStart)
	}
	db.mu.Unlock()
	if werr != nil {
		return fmt.Errorf("relational: logging commit: %w", werr)
	}
	err := db.afterCommit(lsn, qt)
	if err == nil {
		db.met.commit.ObserveSince(start)
	}
	return err
}

// Rollback reverses every effect of the transaction: marked versions come
// back out of the chains (restoring pre-images in place), write intents
// release, and the snapshot unregisters — with the last snapshot gone, a
// vacuum pass returns every table to single-version form.
func (tx *Tx) Rollback() error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.done {
		return errTxDone
	}
	tx.done = true
	db := tx.db
	db.mu.Lock()
	tx.log.rollbackTo(0)
	db.releaseIntentsLocked(&tx.wctx)
	delete(db.snaps, tx.id)
	db.vacuumPendingLocked()
	if tx.sqlLevel {
		db.sqlTx.Store(nil)
	}
	db.mu.Unlock()
	return nil
}
