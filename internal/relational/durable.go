package relational

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/wal"
)

// Durability. A DB opened with Open(dir, …) keeps a logical redo log: every
// committed transaction — the implicit one wrapping a top-level Exec, or an
// explicit Begin…Commit — appends one record holding the SQL text and `?`
// arguments of its successful mutating statements. Every table of such a
// DB lives on heap pages (paged.go). Recovery loads the latest checkpoint — the schema
// history plus the page files it names — and re-executes the log tail in
// commit order. The log stays logical although rows live on pages: no-steal
// page files hold exactly the last checkpoint's state, so replay has
// nothing to undo, and statement replay reuses the exact execution paths
// the engine already tests — determinism is inherited from the executor,
// not re-implemented in a redo interpreter.
//
// Commit protocol: the record is appended to the log (an OS write, no
// fsync) while the committer still holds the writer lock — so log order is
// commit order — and the fsync wait happens after the lock is released.
// Readers therefore never block on the disk: a reader blocked on db.mu
// waits only for the in-memory commit, and group-commit fsync latency is
// paid by committers alone.

// SyncMode re-exports the log's fsync policies.
type SyncMode = wal.SyncMode

// Fsync policies for Options.Sync.
const (
	SyncGroup  = wal.SyncGroup
	SyncAlways = wal.SyncAlways
	SyncOff    = wal.SyncOff
)

// Options configures a persistent DB.
type Options struct {
	// Sync is the fsync policy: SyncGroup (default; batched fsync shared by
	// concurrent committers), SyncAlways, or SyncOff.
	Sync SyncMode
	// GroupWindow is the SyncGroup batching window (default 2ms).
	GroupWindow time.Duration
	// SegmentSize is the log rotation threshold (default 4 MiB).
	SegmentSize int64
	// CheckpointBytes triggers an automatic checkpoint once that many log
	// bytes accumulate past the previous checkpoint. 0 means the 16 MiB
	// default; negative disables auto-checkpointing (crash tests need the
	// log to stay put).
	CheckpointBytes int64
	// Deprecated: every directory is paged; ignored.
	Storage StorageKind
	// PoolPages bounds resident pages (default 256). PageSize sets the
	// page size of a new directory (default pager.DefaultPageSize); on
	// reopen, zero adopts the size the checkpoint recorded, and any other
	// value must equal it.
	PoolPages int
	PageSize  int
}

func (o Options) checkpointBytes() int64 {
	if o.CheckpointBytes == 0 {
		return 16 << 20
	}
	return o.CheckpointBytes
}

// walOptions derives the log's configuration, wiring the DB's metrics
// registry into the log's append/fsync/batch observation points.
func (o Options) walOptions(met *engineMetrics) wal.Options {
	w := wal.Options{Sync: o.Sync, GroupWindow: o.GroupWindow, SegmentSize: o.SegmentSize}
	if met != nil {
		w.AppendHist = met.reg.Histogram("wal_append_ns")
		w.FsyncHist = met.reg.Histogram("wal_fsync_ns")
		w.BatchHist = met.reg.Histogram("wal_batch_commits")
	}
	return w
}

// ddlKind classifies a schema statement for history compaction.
type ddlKind uint8

const (
	ddlNone ddlKind = iota
	ddlCreateTable
	ddlDropTable
	ddlCreateIndex
	ddlDropIndex
	ddlCreateTrigger
	ddlDropTrigger
)

// ddlNote carries the compaction key of a DDL statement: the object it
// creates or drops, and the table it hangs off (for indexes and triggers).
type ddlNote struct {
	kind ddlKind
	name string // lower-cased object name (table or trigger)
	tbl  string // lower-cased owning table for indexes/triggers
}

// redoStmt is one statement captured for the active transaction's commit
// record: the statement text as given and the caller's `?` arguments (nil
// when it has none), replayed through Exec.
type redoStmt struct {
	sql  string
	args []Value
	note ddlNote
}

// classifyStmt decides whether a statement belongs in the redo log and, for
// DDL, extracts its compaction note. Reads and transaction control are
// never logged.
func classifyStmt(stmt Stmt) (bool, ddlNote) {
	switch s := stmt.(type) {
	case *InsertStmt, *DeleteStmt, *UpdateStmt:
		return true, ddlNote{}
	case *CreateTableStmt:
		return true, ddlNote{kind: ddlCreateTable, name: strings.ToLower(s.Name)}
	case *DropTableStmt:
		return true, ddlNote{kind: ddlDropTable, name: strings.ToLower(s.Name)}
	case *CreateIndexStmt:
		return true, ddlNote{kind: ddlCreateIndex, tbl: strings.ToLower(s.Table)}
	case *DropIndexStmt:
		return true, ddlNote{kind: ddlDropIndex, tbl: strings.ToLower(s.Table)}
	case *CreateTriggerStmt:
		return true, ddlNote{kind: ddlCreateTrigger, name: strings.ToLower(s.Name), tbl: strings.ToLower(s.Table)}
	case *DropTriggerStmt:
		return true, ddlNote{kind: ddlDropTrigger, name: strings.ToLower(s.Name)}
	default:
		return false, ddlNote{}
	}
}

// ddlEntry is one line of the schema history a checkpoint must carry:
// replaying these statements against an empty DB reproduces the schema the
// checkpointed pages belong to.
type ddlEntry struct {
	sql  string
	note ddlNote
}

// noteDDLLocked folds one committed DDL statement into the schema history.
// Dropping an object removes its creation (and its dependents' creations)
// from the history instead of appending the drop — this is what keeps the
// temp-table churn of the §6.2.2 table-based insert method from growing
// checkpoints without bound. The one divergence: a trigger whose table is
// dropped vanishes from the history even though the live DB still remembers
// it (it would re-arm if a same-named table were created later); the engine
// never drops a data table, so the trade is history boundedness for an
// anomaly nothing exercises. A DROP INDEX is appended as is: the index it
// drops may be an auto-index no history line created. Caller holds the
// writer lock.
func (db *DB) noteDDLLocked(e redoStmt) {
	switch e.note.kind {
	case ddlNone:
		return
	case ddlCreateTable, ddlCreateIndex, ddlDropIndex, ddlCreateTrigger:
		db.ddlHist = append(db.ddlHist, ddlEntry{sql: e.sql, note: e.note})
	case ddlDropTable:
		found := false
		for _, h := range db.ddlHist {
			if h.note.kind == ddlCreateTable && h.note.name == e.note.name {
				found = true
				break
			}
		}
		if !found {
			db.ddlHist = append(db.ddlHist, ddlEntry{sql: e.sql, note: e.note})
			return
		}
		keep := db.ddlHist[:0]
		for _, h := range db.ddlHist {
			switch {
			case h.note.kind == ddlCreateTable && h.note.name == e.note.name:
			case h.note.tbl == e.note.name:
				// The table's index and trigger statements go with it.
			default:
				keep = append(keep, h)
			}
		}
		db.ddlHist = keep
	case ddlDropTrigger:
		for i, h := range db.ddlHist {
			if h.note.kind == ddlCreateTrigger && h.note.name == e.note.name {
				db.ddlHist = append(db.ddlHist[:i], db.ddlHist[i+1:]...)
				return
			}
		}
		db.ddlHist = append(db.ddlHist, ddlEntry{sql: e.sql, note: e.note})
	}
}

// durable reports whether commits must be captured for redo. True for any
// DB opened from a directory, including while it is replaying its own log.
func (db *DB) durable() bool { return db.wal != nil }

// applyRedoLocked folds a committed transaction's statements into the
// schema history and appends its commit record to the log, returning the
// LSN the caller must wait on after releasing the writer lock (0 when
// nothing was logged). stamp is the MVCC commit stamp the transaction
// committed under; it rides in the record so recovery restores the stamp
// counter past every replayed transaction. Caller holds the writer lock.
func (db *DB) applyRedoLocked(redo []redoStmt, stamp uint64) (uint64, error) {
	if len(redo) == 0 || !db.durable() {
		return 0, nil
	}
	if db.redoErr != nil {
		// A previous commit's record was lost after its in-memory effects
		// became visible; the log no longer describes the data. Fail-stop
		// every later commit rather than append records that would replay
		// against a state missing the lost transaction.
		return 0, db.redoErr
	}
	for _, e := range redo {
		db.noteDDLLocked(e)
	}
	if db.replaying {
		return 0, nil
	}
	stmts := make([]wal.Stmt, len(redo))
	for i, e := range redo {
		ws := wal.Stmt{SQL: e.sql}
		if len(e.args) > 0 {
			ws.Args = make([]wal.Value, len(e.args))
			for j, a := range e.args {
				ws.Args[j] = walVal(a)
			}
		}
		stmts[i] = ws
	}
	lsn, err := db.wal.Append(stmts, stamp)
	if err != nil {
		// The in-memory commit already happened (the undo log is gone), so
		// the caller sees an error for work that is visible in memory —
		// and from here on the log is missing a transaction later records
		// may depend on. Poison further commits; reads stay available.
		db.redoErr = fmt.Errorf("relational: commit record lost (log and memory diverged): %w", err)
		return 0, db.redoErr
	}
	return lsn, nil
}

// afterCommit completes a commit after the writer lock is released: it
// waits for the record to reach stable storage under the configured policy
// and runs the auto-checkpoint trigger. qt, when non-nil, receives the
// durability wait as its FsyncWait span.
func (db *DB) afterCommit(lsn uint64, qt *QueryTrace) error {
	if lsn == 0 || db.wal == nil {
		return nil
	}
	waitStart := time.Now()
	err := db.wal.WaitDurable(lsn)
	db.met.fsyncWait.ObserveSince(waitStart)
	if qt != nil {
		qt.FsyncWait = time.Since(waitStart)
	}
	if err != nil {
		return fmt.Errorf("relational: commit not durable: %w", err)
	}
	db.maybeCheckpoint()
	return nil
}

// maybeCheckpoint starts a checkpoint when the log has outgrown the
// threshold. It runs on a background goroutine — the committer that
// crossed the threshold should not absorb a dirty-page flush and its
// fsyncs in its own latency — with at most one in flight; errors are
// remembered and surfaced by Close rather than failing an unrelated
// commit. A checkpoint racing Close aborts harmlessly inside the log
// (operations on a closed log error out).
func (db *DB) maybeCheckpoint() {
	cb := db.walOpts.checkpointBytes()
	if cb <= 0 || db.wal.SizeSinceCheckpoint() < cb {
		return
	}
	db.ckptMu.Lock()
	if db.ckptBusy || db.closing {
		db.ckptMu.Unlock()
		return
	}
	db.ckptBusy = true
	db.ckptWG.Add(1)
	db.ckptMu.Unlock()
	go func() {
		defer func() {
			db.ckptMu.Lock()
			db.ckptBusy = false
			db.ckptMu.Unlock()
			db.ckptWG.Done()
		}()
		// An open explicit transaction defers the checkpoint rather than
		// failing it; the trigger fires again after the next commit.
		if err := db.Checkpoint(); err != nil && err != errCkptOpenTxn {
			db.ckptErr.Store(&err)
		}
	}()
}

// Open opens (or creates) a durable database rooted at dir: it recovers the
// latest checkpoint, replays the intact log tail (truncating a torn tail at
// the first bad CRC), and returns a DB whose future commits append to the
// log. The directory admits one live DB at a time — opening it from two
// processes concurrently is caller misuse (the embedded-database model,
// like SQLite without its file locks).
func Open(dir string, opts Options) (*DB, error) {
	// The DB (and its metrics registry) exists before the log so the log's
	// append/fsync observation points can ride wal.Options.
	db := NewDB()
	db.met.useSyncMode(opts.Sync)
	l, err := wal.Open(dir, opts.walOptions(db.met))
	if err != nil {
		return nil, err
	}
	db.wal = l
	db.walOpts = opts
	db.pagedDir = dir
	db.replaying = true
	ok := false
	defer func() {
		if !ok {
			db.auditPaged()
			l.Close()
		}
	}()

	// Complete a checkpoint that crashed between its doublewrite buffer
	// and its marker — after this, every intact page file byte is the
	// checkpoint's, and any page still failing its checksum is real
	// corruption.
	if err := db.recoverDoublewrite(l); err != nil {
		return nil, err
	}

	payload, _, has, err := l.ReadCheckpoint()
	if err != nil {
		return nil, err
	}
	pageSize := opts.PageSize
	var ddl []string
	var metas []pagedTableMeta
	if has {
		var ckptPageSize int
		if ckptPageSize, ddl, metas, err = decodePagedPayload(payload); err != nil {
			return nil, err
		}
		if pageSize == 0 {
			pageSize = ckptPageSize
		} else if pageSize != ckptPageSize {
			return nil, fmt.Errorf("relational: configured page size %d, checkpoint written with %d", pageSize, ckptPageSize)
		}
	}
	// The pool exists before any DDL replays so createTable attaches paged
	// state to every recovered table.
	db.pool = newPagePool(opts.PoolPages, pageSize)
	for _, sql := range ddl {
		if _, err := db.Exec(sql); err != nil {
			return nil, fmt.Errorf("relational: recovering schema: %q: %w", sql, err)
		}
	}
	if err := db.attachPagedTables(metas); err != nil {
		return nil, err
	}
	if err := l.Replay(func(stamp uint64, stmts []wal.Stmt) error {
		return db.replayCommit(stamp, stmts)
	}); err != nil {
		return nil, err
	}
	db.replaying = false
	// A long replay can leave the pool holding far more dirty pages than
	// its budget; one checkpoint makes them clean and evictable, and the
	// explicit sweep brings residency back under the limit.
	if db.pool.overLimit() {
		if err := db.Checkpoint(); err != nil {
			return nil, err
		}
		db.pool.mu.Lock()
		db.pool.evictPressureLocked()
		db.pool.mu.Unlock()
	}
	ok = true
	return db, nil
}

// RecoveredCommits reports how many log-tail commit records the Open that
// produced this DB replayed (excluding state loaded from the checkpoint).
func (db *DB) RecoveredCommits() int {
	if db.wal == nil {
		return 0
	}
	return db.wal.RecoveredCommits
}

// replayCommit re-executes one logged transaction. Replay runs
// single-threaded before the DB is shared, each record holds a fully
// committed transaction, and statement execution is deterministic, so
// statements re-run through the ordinary autocommit path. Replay itself is
// unversioned (no snapshot is registered on a recovering DB, so every
// replayed statement takes the physical single-version path); the logged
// stamp only advances the stamp counter, keeping post-recovery stamps
// monotonic with the pre-crash history.
func (db *DB) replayCommit(stamp uint64, stmts []wal.Stmt) error {
	if stamp > db.commitTS {
		db.commitTS = stamp
	}
	for _, s := range stmts {
		var args []Value
		for _, a := range s.Args {
			v, err := fromWalVal(a)
			if err != nil {
				return err
			}
			args = append(args, v)
		}
		if _, err := db.Exec(s.SQL, args...); err != nil {
			return err
		}
	}
	return nil
}

// errBulkOpenTxn refuses a BulkLoad that an open snapshot could observe.
var errBulkOpenTxn = errors.New("relational: BulkLoad requires no open transactions")

// BulkLoad appends rows to existing tables, keyed by table name, in one
// all-or-nothing step: the document loader's and the ASR build's fast path,
// with no statement parsed or planned per row. It takes the writer lock and
// refuses while any transaction or snapshot is open, so no reader sees a
// half-loaded table. A failure (wrong arity, a coercion error, a duplicate
// id) rolls every table back through the undo log, where an insert undoes
// by truncation. The rows do not go through the redo log: on a directory
// DB the load ends with a checkpoint, taken under the same lock hold, so it
// is durable when BulkLoad returns, like COPY under wal_level=minimal. A
// crash before that checkpoint recovers the state before the load. If the
// checkpoint itself fails, the rows stay loaded in memory but are not
// durable, and the caller should abandon the DB.
func (db *DB) BulkLoad(rows map[string][][]Value) error {
	if db.durable() {
		db.pagedCkptMu.Lock()
		defer db.pagedCkptMu.Unlock()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.snaps) > 0 {
		return errBulkOpenTxn
	}
	if err := db.pagedErr(); err != nil {
		return err
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	// Inserts only append, so each table's row count before the load is all
	// the undo log needs; its entries are built only if the load fails.
	before := make(map[*Table]int, len(names))
	if err := db.bulkInsertLocked(names, rows, before); err != nil {
		undo := newUndoLog()
		for t, n := range before {
			for rid := n; rid < len(t.rows); rid++ {
				undo.record(undoEntry{kind: undoInsert, t: t, rid: rid})
			}
		}
		undo.rollbackTo(0)
		return err
	}
	if !db.durable() {
		return nil
	}
	flush, err := db.captureCheckpointLocked()
	if err != nil {
		return err
	}
	return flush()
}

// bulkInsertLocked inserts each named table's rows in order, recording in
// before the row count of every table it reaches. Caller holds the writer
// lock.
func (db *DB) bulkInsertLocked(names []string, rows map[string][][]Value, before map[*Table]int) error {
	for _, name := range names {
		t := db.tables[strings.ToLower(name)]
		if t == nil {
			return fmt.Errorf("relational: no table %q", name)
		}
		if _, seen := before[t]; !seen {
			before[t] = len(t.rows)
		}
		for _, row := range rows[name] {
			// Insert keeps the slice it is given; the caller's stays its own.
			if _, err := t.Insert(slices.Clone(row)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close waits for any in-flight auto-checkpoint, flushes the log to stable
// storage, and releases it. Further commits on the handle fail. In-memory
// DBs (NewDB) close as a no-op.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	// Stop new auto-checkpoints and join the in-flight one first: closing
	// the log under it would abort it mid-write, and its error would land
	// after we read ckptErr.
	db.ckptMu.Lock()
	db.closing = true
	db.ckptMu.Unlock()
	db.ckptWG.Wait()
	err := db.wal.Close()
	if p := db.ckptErr.Load(); err == nil && p != nil {
		err = *p
	}
	// Audit that no page is still pinned (a leaked cursor) and release
	// the page files. Dirty pages need no flush — the WAL tail
	// replays them on the next Open.
	db.mu.Lock()
	auditErr := db.auditPaged()
	db.mu.Unlock()
	if err == nil {
		err = auditErr
	}
	if err == nil {
		err = db.pagedErr()
	}
	return err
}

// walVal converts a relational value to the log's tagged form — a field
// copy, no boxing. The kind numbering is shared by construction.
func walVal(v Value) wal.Value {
	return wal.Value{Kind: wal.Kind(v.kind), Int: v.i, Str: v.s}
}

// fromWalVal converts a decoded log value back, rejecting kinds outside the
// canonical domain (a decoder bug or hand-edited log must fail recovery
// loudly, not smuggle an undefined value into the heap).
func fromWalVal(w wal.Value) (Value, error) {
	switch w.Kind {
	case wal.KindNull:
		return Null, nil
	case wal.KindInt:
		return Int(w.Int), nil
	case wal.KindText:
		return Text(w.Str), nil
	default:
		return Null, fmt.Errorf("relational: log value with unknown kind %d", uint8(w.Kind))
	}
}
