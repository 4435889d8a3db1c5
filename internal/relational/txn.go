package relational

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Transactions. The paper's §6.3 execution model requires an update
// statement to behave atomically: bindings are computed over the unmodified
// database, then sub-operations apply — so a failure discovered while a
// sub-operation executes must leave no trace of the ones before it. The
// engine gets that from this layer: an undo log records every row mutation
// (insert, delete, update) with enough of a pre-image to reverse it, and a
// transaction — explicit via Begin or the implicit one wrapping every
// top-level Exec — applies the log backwards on rollback, restoring rows,
// live counts, hash buckets, and B+tree entries through Table.revert, which
// uses the same row-writer methods as the forward writes (table.go).
//
// Undo logging was chosen over copy-on-write table versions: mutations stay
// in place (no per-statement table copies, so bulk loads and renumber
// UPDATEs keep their PR 1/PR 2 cost), and the log's size is proportional to
// the statement's write set, not the table. Readers must not observe a
// mutation epoch in progress. Autocommit statements get that from the
// writer lock alone. An explicit transaction releases the lock between
// statements, but while it is the only session (mvcc.go's mode rule) there
// is nobody to hide its writes from, so it writes in place too. Once a
// second session arrives, its in-place writes are upgraded from the undo
// log into versions marked with its transaction id, and from then on it
// marks every write, so concurrent snapshot readers resolve to the
// pre-image on the version chain instead. The undo log doubles as the
// version chain's spine: rollback unmarks versions rather than replaying
// pre-images blindly, and commit flips the marks to the allocated commit
// stamp.

// errTxDone is returned by operations on a finished transaction.
var errTxDone = fmt.Errorf("relational: transaction has already been committed or rolled back")

// Session is the statement-execution surface shared by a DB in autocommit
// mode and an open Tx: the three statement doors, each taking the text's
// `?` arguments. Code that must run inside a caller-supplied transaction —
// the engine's §6.3 execution phase — takes a Session, so the same helpers
// serve both transactional and autocommit callers.
type Session interface {
	Exec(sql string, args ...Value) (int, error)
	Query(sql string, args ...Value) (*Rows, error)
	QueryEach(sql string, fn func(row []Value) error, args ...Value) ([]string, error)
}

var (
	_ Session = (*DB)(nil)
	_ Session = (*Tx)(nil)
)

// ---- undo log ----

type undoKind uint8

const (
	// undoInsert reverses a row insertion: unindex and drop the row. A
	// versioned (marked) insert carries v != nil and also clears its
	// version metadata.
	undoInsert undoKind = iota
	// undoDelete reverses a physical delete: relink the row and its index
	// entries.
	undoDelete
	// undoUpdate reverses an in-place overwrite from the recorded pre-image.
	undoUpdate
	// undoDDL reverses a schema change (create/drop of tables, indexes,
	// triggers) via a recorded closure. DDL is rare, so the per-entry
	// closure allocation stays off the row-mutation hot path.
	undoDDL
	// Versioned forms (mvcc.go): the mutation marked row versions instead of
	// mutating physically, and undo must clear the marks and restore the
	// chain. Entries carry v != nil.
	undoDeleteV
	undoUpdateV
)

// undoEntry is one reversible mutation. For undoDelete, row is the removed
// row slice itself (detached from the table, never mutated afterwards); for
// undoUpdate it is the pre-image copy Update took; for undoDDL, fn restores
// the schema. Table.revert applies the row kinds.
type undoEntry struct {
	kind undoKind
	t    *Table
	rid  int
	row  []Value
	fn   func()
	// v carries the version-chain bookkeeping of a versioned mutation
	// (non-nil exactly for the versioned ones); commit stamping keys off it.
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

// The undo log is chunked: the first undoHead entries live inline in the
// undoLog, so a statement writing a few rows logs them without allocating,
// and later chunks double in size up to undoChunk entries. A full chunk is
// never copied, so a bulk statement's log grows by allocation alone, with
// no regrowth copies and no discarded arrays for the collector. Chunk
// boundaries fall at powers of two up to undoChunk, then at its multiples.
const (
	undoHead  = 16
	undoChunk = 1024
)

// undoLog accumulates a transaction's reversible mutations in order.
type undoLog struct {
	// n counts the entries held: the first min(n, undoHead) in head, the
	// rest in chunks, each full but the last, which is never empty.
	n      int
	head   [undoHead]undoEntry
	chunks [][]undoEntry
	// touched lists the mutated tables, each once, for commit-time
	// ordered-index compaction (deletes only tombstone B+tree entries; see
	// commit). A transaction writes a handful of tables, one row after
	// another, so a slice checked from its newest end beats a map write
	// per row.
	touched []*Table
	// redo collects the transaction's successful logged statements for the
	// commit record (durable.go). A statement's redo entry is appended only
	// after it succeeds, so statement-level rollback never needs to unwind
	// it; a whole-transaction rollback discards the log, redo included.
	redo []redoStmt
}

func newUndoLog() *undoLog { return &undoLog{} }

// record appends a row mutation's undo entry (the Table writer calls it).
func (l *undoLog) record(e undoEntry) {
	if n := len(l.touched); n == 0 || l.touched[n-1] != e.t && !slices.Contains(l.touched, e.t) {
		l.touched = append(l.touched, e.t)
	}
	l.push(e)
}

func (l *undoLog) recordDDL(fn func()) {
	l.push(undoEntry{kind: undoDDL, fn: fn})
}

// push appends e, opening the next chunk when the last one is full.
func (l *undoLog) push(e undoEntry) {
	if l.n < undoHead {
		l.head[l.n] = e
		l.n++
		return
	}
	k := len(l.chunks)
	if k == 0 || len(l.chunks[k-1]) == cap(l.chunks[k-1]) {
		size := undoHead
		if k > 0 {
			size = min(2*cap(l.chunks[k-1]), undoChunk)
		}
		l.chunks = append(l.chunks, make([]undoEntry, 0, size))
		k++
	}
	l.chunks[k-1] = append(l.chunks[k-1], e)
	l.n++
}

// entries yields the held entries oldest first. Entries stay where they
// are, so a pointer to one is valid until it is popped.
func (l *undoLog) entries(yield func(*undoEntry) bool) {
	for i := range min(l.n, undoHead) {
		if !yield(&l.head[i]) {
			return
		}
	}
	for _, c := range l.chunks {
		for i := range c {
			if !yield(&c[i]) {
				return
			}
		}
	}
}

// mark returns a position to roll back to — the statement boundary inside a
// multi-statement transaction.
func (l *undoLog) mark() int { return l.n }

// rollbackTo applies entries beyond mark in reverse, restoring the tables
// to their state at the mark. Each popped entry is zeroed, so the log keeps
// no pre-image or closure alive, and a chunk it empties is dropped. Caller
// holds the writer lock.
func (l *undoLog) rollbackTo(mark int) {
	for l.n > mark {
		k := len(l.chunks)
		seg := l.head[:min(l.n, undoHead)]
		if k > 0 {
			seg = l.chunks[k-1]
		}
		lo := max(len(seg)-(l.n-mark), 0)
		for i := len(seg) - 1; i >= lo; i-- {
			if e := &seg[i]; e.kind == undoDDL {
				e.fn()
			} else {
				e.t.revert(e)
			}
			seg[i] = undoEntry{}
		}
		l.n -= len(seg) - lo
		switch {
		case k == 0:
		case lo == 0:
			l.chunks[k-1] = nil
			l.chunks = l.chunks[:k-1]
		default:
			l.chunks[k-1] = seg[:lo]
		}
	}
}

// commit empties the log and compacts the touched tables' ordered indexes
// whose lazy tombstones now outnumber live rows. Compaction used to run on
// the read path; it moved here because reads now run under a shared lock
// (mutating a tree there would race) and because compacting mid-transaction
// would drop tombstoned entries the undo log still counts on. Staleness only
// grows through deletes, and every delete touches its table, so the
// threshold is always observed at some commit. Caller holds the writer lock.
func (l *undoLog) commit() {
	for _, t := range l.touched {
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
	clear(l.head[:min(l.n, undoHead)])
	l.n, l.chunks = 0, nil
}

// ---- transactions ----

// Tx is an open transaction. It takes an MVCC snapshot at Begin and holds
// the database's writer lock only per statement and for the commit critical
// section — never between statements — so concurrent DB.Query readers keep
// running against committed state while the transaction sits open
// (mvcc.go). Its reads observe the snapshot plus its own uncommitted
// writes; its writes take per-table write intents, and an overlapping
// writer aborts first-committer-wins. Tx methods serialize on an internal
// mutex, so goroutines sharing one Tx handle interleave their statements
// into it rather than racing each other.
type Tx struct {
	db  *DB
	log *undoLog
	// id is the transaction's mark identity; snapTS the commit stamp its
	// snapshot was taken at. wctx is the write context installed as
	// db.writer for the duration of each statement.
	id     uint64
	snapTS uint64
	wctx   writeCtx
	// mu serializes the transaction's statements; done (guarded by mu)
	// marks it finished.
	mu   sync.Mutex
	done bool
}

// Begin opens an explicit transaction: a short critical section registers
// its snapshot, after which the writer lock is released — concurrent
// readers and other writers proceed, isolated from this transaction's
// writes by version visibility (mvcc.go). The transaction allocates its
// id, snapshots the current commit stamp, and registers the snapshot, which
// switches autocommit writers into versioned mode until it unregisters. A
// transaction that finds no other snapshot registered starts lone, writing
// in place; one that finds a lone transaction upgrades it first, since its
// snapshot must not see that transaction's writes.
func (db *DB) Begin() *Tx {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.upgradeLoneLocked()
	db.nextTxn++
	tx := &Tx{db: db, log: newUndoLog(), id: db.nextTxn, snapTS: db.commitTS}
	lone := len(db.snaps) == 0
	tx.wctx = writeCtx{txnID: tx.id, snapTS: tx.snapTS, explicit: true, versioned: !lone}
	if lone {
		db.lone = tx
	}
	db.snaps[tx.id] = tx.snapTS
	db.stats.SnapshotsTaken.Add(1)
	return tx
}

// Exec executes a statement inside the transaction; args bind the text's
// `?` placeholders, as for DB.Exec. A statement that fails rolls back to its
// own start (statement atomicity); the transaction stays open until Commit
// or Rollback.
func (tx *Tx) Exec(sql string, args ...Value) (int, error) {
	return tx.db.write(tx, "tx-exec", sql, args)
}

// Query executes a SELECT inside the transaction, observing its uncommitted
// writes.
func (tx *Tx) Query(sql string, args ...Value) (*Rows, error) {
	return tx.db.queryRows(tx, "tx-query", sql, args)
}

// QueryEach streams a SELECT's rows inside the transaction. Like
// DB.QueryEach, the row slice is reused between fn calls; copy to retain.
func (tx *Tx) QueryEach(sql string, fn func(row []Value) error, args ...Value) ([]string, error) {
	return tx.db.read(tx, "tx-query-each", sql, args, fn)
}

// snap is the transaction's read view: its snapshot plus its own writes.
func (tx *Tx) snap() snapshot { return snapshot{ts: tx.snapTS, self: tx.id} }

// exec is the transaction write core: it runs one statement with
// statement-level atomicity inside the open transaction. src and logArgs
// are the statement's redo form: the text as given and the caller's
// arguments (nil when it has none). The trace dispatch stays with the door
// so hooks never run under tx.mu or the writer lock.
func (tx *Tx) exec(stmt Stmt, args []Value, src string, logArgs []Value, qt *QueryTrace) (int, error) {
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
	env.snap = tx.snap()
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
	if db.durable() {
		if logged, note := classifyStmt(stmt); logged {
			// Copy the argument slice: the commit record is only encoded at
			// Commit, and a caller reusing its args buffer between Exec and
			// Commit must not rewrite logged history.
			var cp []Value
			if len(logArgs) > 0 {
				cp = append(cp, logArgs...)
			}
			tx.log.redo = append(tx.log.redo, redoStmt{sql: src, args: cp, note: note})
		}
	}
	return n, nil
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
	db.endTxLocked(tx)
	tx.log.commit()
	lsn, werr := db.applyRedoLocked(tx.log.redo, stamp)
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

// Rollback reverses every effect of the transaction from its undo log —
// in-place writes from their pre-images, marked versions back out of the
// chains — then write intents release and the snapshot unregisters; with
// the last snapshot gone, a vacuum pass returns every table to
// single-version form.
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
	db.endTxLocked(tx)
	db.mu.Unlock()
	return nil
}

// endTxLocked is the end shared by Commit and Rollback: the transaction's
// write intents release, its snapshot unregisters (it stops being lone),
// and a vacuum pass reclaims what no remaining snapshot can see. Caller
// holds the writer lock.
func (db *DB) endTxLocked(tx *Tx) {
	db.releaseIntentsLocked(&tx.wctx)
	delete(db.snaps, tx.id)
	if db.lone == tx {
		db.lone = nil
	}
	db.vacuumPendingLocked()
}
