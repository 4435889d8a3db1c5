package relational

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"repro/internal/wal"
)

// Durability. A DB opened with Open(dir, …) keeps a logical redo log: every
// committed transaction — the implicit one wrapping a top-level Exec, or an
// explicit BEGIN…COMMIT — appends one record holding the SQL text (raw for
// Exec, the `?` shape plus bound arguments for prepared statements) of its
// successful mutating statements. Recovery loads the latest checkpoint
// (schema history + data snapshot) and re-executes the log tail in commit
// order. Logical logging was chosen over physical page logging because the
// engine's "pages" are Go heap structures with no stable byte layout, and
// because statement replay reuses the exact execution paths the engine
// already tests — determinism is inherited from the executor, not
// re-implemented in a redo interpreter.
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
	// SlowQuery, when positive, arms the slow-query log: statements whose
	// total latency reaches the threshold are traced and retained in the
	// recent-statements ring (see DB.SetSlowQuery / DB.TraceLog). Zero
	// leaves tracing off.
	SlowQuery time.Duration
	// Storage selects the row-storage backend: StorageMemory (default)
	// keeps every table on the heap and checkpoints whole snapshots;
	// StoragePaged keeps tables on checksummed heap pages behind a buffer
	// pool and checkpoints only dirty pages (paged.go). Either mode can
	// open a directory last written by the other.
	Storage StorageKind
	// PoolPages bounds resident pages for StoragePaged (default 256);
	// PageSize sets the page size (default pager.DefaultPageSize). Both
	// are ignored by StorageMemory. PageSize must match across reopens of
	// the same directory.
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
// record. sql is replayable as-is when args is nil; otherwise it is a `?`
// shape executed with args bound.
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
// snapshot's data belongs to.
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
// anomaly nothing exercises. Caller holds the writer lock.
func (db *DB) noteDDLLocked(e redoStmt) {
	switch e.note.kind {
	case ddlNone:
		return
	case ddlCreateTable, ddlCreateIndex, ddlCreateTrigger:
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
			case h.note.kind == ddlCreateIndex && h.note.tbl == e.note.name:
			case h.note.kind == ddlCreateTrigger && h.note.tbl == e.note.name:
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
// crossed the threshold should not absorb a full-database snapshot and
// fsync in its own latency — with at most one in flight; errors are
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
		// An open explicit transaction defers a paged checkpoint rather
		// than failing it; the trigger fires again after the next commit.
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
	if opts.Storage == StoragePaged {
		// The pool exists before any DDL replays so createTable attaches
		// paged state to every recovered table.
		db.pool = newPagePool(opts.PoolPages, opts.PageSize)
	}
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
	// corruption. Runs in either storage mode: the pending images belong
	// to the directory, not to the mode opening it.
	if err := db.recoverDoublewrite(l); err != nil {
		return nil, err
	}

	payload, _, has, err := l.ReadCheckpoint()
	if err != nil {
		return nil, err
	}
	if has {
		ddl, snapBytes, pageSize, metas, v2, err := dispatchCheckpointPayload(payload)
		if err != nil {
			return nil, err
		}
		for _, sql := range ddl {
			if _, err := db.Exec(sql); err != nil {
				return nil, fmt.Errorf("relational: recovering schema: %q: %w", sql, err)
			}
		}
		if v2 {
			if db.pool != nil && db.pool.pageSize != pageSize {
				return nil, fmt.Errorf("relational: configured page size %d, checkpoint written with %d", db.pool.pageSize, pageSize)
			}
			if err := db.attachPagedTables(pageSize, metas); err != nil {
				return nil, err
			}
		} else {
			snap, err := DecodeSnapshot(snapBytes)
			if err != nil {
				return nil, err
			}
			db.Restore(snap)
		}
	}
	if err := l.Replay(func(stamp uint64, stmts []wal.Stmt) error {
		return db.replayCommit(stamp, stmts)
	}); err != nil {
		return nil, err
	}
	db.replaying = false
	if db.pool != nil {
		// A long replay can leave the pool holding far more dirty pages
		// than its budget; one checkpoint makes them clean and evictable,
		// and the explicit sweep brings residency back under the limit.
		if db.pool.overLimit() {
			if err := db.Checkpoint(); err != nil {
				return nil, err
			}
			db.pool.mu.Lock()
			db.pool.evictPressureLocked()
			db.pool.mu.Unlock()
		}
	}
	// Armed after replay so recovery re-execution does not pollute the
	// slow-query log.
	if opts.SlowQuery > 0 {
		db.SetSlowQuery(opts.SlowQuery)
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
		if len(s.Args) == 0 {
			if _, err := db.Exec(s.SQL); err != nil {
				return err
			}
			continue
		}
		p, err := db.Prepare(s.SQL)
		if err != nil {
			return err
		}
		args := make([]Value, len(s.Args))
		for i, a := range s.Args {
			var err error
			if args[i], err = fromWalVal(a); err != nil {
				return err
			}
		}
		if _, err := p.Exec(args...); err != nil {
			return err
		}
	}
	return nil
}

// logBulkChunk bounds one bulk record's statement bytes, comfortably under
// the log's frame limit while keeping huge document loads to a handful of
// records.
const logBulkChunk = 8 << 20

// LogBulk appends redo records for mutations performed outside the SQL
// layer — the shredder's bulk document load and the ASR build both insert
// rows directly for speed. The statements are not executed; they are the
// given mutations' SQL equivalent, recorded so recovery can reproduce the
// bulk state even before the first checkpoint exists. Large loads split
// into multiple records (a crash between them is covered by the
// initialization protocol: engine.OpenDir wipes and redoes a
// half-initialized directory). Call it immediately after the bulk
// mutation, before other writers exist.
func (db *DB) LogBulk(sqls []string) error {
	if !db.durable() || db.replaying || len(sqls) == 0 {
		return nil
	}
	var lsn uint64
	for len(sqls) > 0 {
		size, n := 0, 0
		for n < len(sqls) && (n == 0 || size+len(sqls[n]) <= logBulkChunk) {
			size += len(sqls[n])
			n++
		}
		stmts := make([]wal.Stmt, n)
		for i, s := range sqls[:n] {
			stmts[i] = wal.Stmt{SQL: s}
		}
		sqls = sqls[n:]
		var err error
		func() {
			db.mu.Lock()
			defer db.mu.Unlock()
			// Bulk loads are commits too: each record gets its own stamp so
			// the recovered stamp counter covers them.
			db.commitTS++
			lsn, err = db.wal.Append(stmts, db.commitTS)
		}()
		if err != nil {
			return err
		}
	}
	return db.afterCommit(lsn, nil)
}

// Checkpoint serializes the schema history and a data snapshot into a
// checkpoint file and truncates the log segments it supersedes. It runs
// under the shared lock — concurrent readers proceed; writers wait exactly
// as they would for any reader.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("relational: Checkpoint requires a DB opened with Open(dir, …)")
	}
	if db.pool != nil {
		return db.checkpointPaged()
	}
	db.mu.RLock()
	snap := db.snapshotLocked()
	ddl := make([]string, len(db.ddlHist))
	for i, e := range db.ddlHist {
		ddl[i] = e.sql
	}
	lsn := db.wal.LastLSN()
	db.mu.RUnlock()
	snapBytes, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	return db.wal.WriteCheckpoint(lsn, encodeCheckpointPayload(ddl, snapBytes))
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
	// Paged: audit that no page is still pinned (a leaked cursor) and
	// release the page files. Dirty pages need no flush — the WAL tail
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

// Checkpoint payload: "RCKP1", uvarint DDL count, per-statement uvarint
// length + SQL text, then the snapshot bytes.
const ckptMagic = "RCKP1"

func encodeCheckpointPayload(ddl []string, snap []byte) []byte {
	b := []byte(ckptMagic)
	b = binary.AppendUvarint(b, uint64(len(ddl)))
	for _, sql := range ddl {
		b = binary.AppendUvarint(b, uint64(len(sql)))
		b = append(b, sql...)
	}
	return append(b, snap...)
}

// dispatchCheckpointPayload decodes either checkpoint generation by its
// magic: v2 ("RCKP2", paged — DDL plus page-file metadata) or v1
// ("RCKP1", snapshot). v2 fields are zero for a v1 payload and vice
// versa; v2 reports which was found.
func dispatchCheckpointPayload(payload []byte) (ddl []string, snap []byte, pageSize int, metas []pagedTableMeta, v2 bool, err error) {
	if len(payload) >= len(ckptMagicV2) && string(payload[:len(ckptMagicV2)]) == ckptMagicV2 {
		pageSize, ddl, metas, err = decodePagedPayload(payload)
		return ddl, nil, pageSize, metas, true, err
	}
	ddl, snap, err = decodeCheckpointPayload(payload)
	return ddl, snap, 0, nil, false, err
}

func decodeCheckpointPayload(data []byte) (ddl []string, snap []byte, err error) {
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, nil, fmt.Errorf("relational: bad checkpoint magic")
	}
	b := data[len(ckptMagic):]
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return nil, nil, fmt.Errorf("relational: bad checkpoint DDL count")
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		ln, n := binary.Uvarint(b)
		if n <= 0 || ln > uint64(len(b)-n) {
			return nil, nil, fmt.Errorf("relational: bad checkpoint DDL entry")
		}
		ddl = append(ddl, string(b[n:n+int(ln)]))
		b = b[n+int(ln):]
	}
	return ddl, b, nil
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
