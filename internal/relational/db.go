package relational

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// Stats counts the work a DB has performed. The paper's performance analysis
// hinges on statements issued and rows scanned, so both are tracked.
type Stats struct {
	// Statements counts client-issued statements (Exec, Query and
	// QueryEach on a DB or Tx, and ExplainAnalyze).
	// Trigger bodies run inside the engine and are not counted, matching
	// the paper's distinction between application-level cascading deletes
	// and trigger-based deletes.
	Statements int64
	// TriggerFirings counts trigger body executions.
	TriggerFirings int64
	// RowsScanned counts rows visited by scans, index probes, and hash
	// builds.
	RowsScanned  int64
	RowsInserted int64
	RowsDeleted  int64
	RowsUpdated  int64
	// IndexProbes counts persistent-index probe operations; FullScans
	// counts full relation scan passes. Together they expose which access
	// path the executor chose.
	IndexProbes int64
	FullScans   int64
	// RangeProbes counts bounded B+tree range scans — the access path of
	// pos-window UPDATEs and sibling-window queries.
	RangeProbes int64
	// SortPasses counts blocking sort operators actually run; RowsSorted
	// counts the rows they buffered. Sort elision drives both toward zero
	// on ordered access paths.
	SortPasses int64
	RowsSorted int64
	// HashJoinBuilds counts transient hash tables built for equality joins
	// with no supporting index.
	HashJoinBuilds int64
	// PlanCacheHits/Misses count shape-cache lookups: a hit reuses a parsed
	// and planned statement template, a miss pays parse + plan.
	PlanCacheHits   int64
	PlanCacheMisses int64
	// SnapshotsTaken counts MVCC snapshots registered by explicit
	// transactions (Begin). VersionChainHops counts version-chain nodes
	// walked by visibility checks — structurally zero while every table is
	// single-version, which is what keeps the read fast path unchanged.
	// WriteConflicts counts first-committer-wins aborts and intent
	// collisions; VersionsVacuumed counts row versions reclaimed once no
	// live snapshot could see them (mvcc.go).
	SnapshotsTaken   int64
	VersionChainHops int64
	WriteConflicts   int64
	VersionsVacuumed int64
	// Paged-storage buffer pool counters (paged.go), all zero on an
	// in-memory DB (NewDB). PageReads/PageWrites count physical page
	// I/O (a checkpoint's doublewrite and in-place passes both count);
	// PoolHits/PoolMisses count row-access residency checks; Evictions
	// counts pages dropped by the CLOCK sweep; DirtyFlushes counts dirty
	// pages written out by checkpoints.
	PageReads    int64
	PageWrites   int64
	PoolHits     int64
	PoolMisses   int64
	Evictions    int64
	DirtyFlushes int64
}

// statCounters is the live, concurrently updated form of Stats. Readers run
// under the shared lock and still count rows scanned and probes made, so
// every counter is an atomic; Stats() materializes a plain snapshot.
type statCounters struct {
	Statements      atomic.Int64
	TriggerFirings  atomic.Int64
	RowsScanned     atomic.Int64
	RowsInserted    atomic.Int64
	RowsDeleted     atomic.Int64
	RowsUpdated     atomic.Int64
	IndexProbes     atomic.Int64
	FullScans       atomic.Int64
	RangeProbes     atomic.Int64
	SortPasses      atomic.Int64
	RowsSorted      atomic.Int64
	HashJoinBuilds  atomic.Int64
	PlanCacheHits   atomic.Int64
	PlanCacheMisses atomic.Int64

	SnapshotsTaken   atomic.Int64
	VersionChainHops atomic.Int64
	WriteConflicts   atomic.Int64
	VersionsVacuumed atomic.Int64

	PageReads    atomic.Int64
	PageWrites   atomic.Int64
	PoolHits     atomic.Int64
	PoolMisses   atomic.Int64
	Evictions    atomic.Int64
	DirtyFlushes atomic.Int64
}

// DB is an embedded relational database.
//
// Concurrency model: individual statements hold the writer lock exclusively;
// Query/QueryEach/Snapshot/Stats hold it shared. An explicit transaction
// (Begin) does not hold the writer lock between its statements: it takes
// an MVCC snapshot at Begin, marks the rows it writes with its transaction
// id once another session could look (alone, it writes in place until a
// second session arrives and upgrades it), and readers evaluate row
// visibility against their snapshot (mvcc.go). Readers therefore only ever
// observe a committed version of the data — and they keep completing while
// a write transaction sits open, blocking at most for the duration of one
// statement or one upgrade. N
// goroutines can run Sorted-Outer-Union reconstruction concurrently,
// serializing only against individual writer statements, never against each
// other. Writers conflict first-committer-wins: per-table write intents
// make an overlapping second writer abort with ErrWriteConflict instead of
// blocking.
type DB struct {
	// mu is the data-plane reader/writer lock described above.
	mu sync.RWMutex
	// stmtMu guards the shape cache (stmts): both read and write paths
	// populate it, so it needs its own lock under concurrent readers.
	stmtMu sync.Mutex
	// planMu guards the plan caches living on shared AST nodes
	// (SimpleSelect.plan, SelectStmt.wants, DML plan slots, the physical
	// access cache): concurrent readers compile plans for the same cached
	// statement template.
	planMu sync.Mutex

	tables   map[string]*Table
	triggers map[string]*trigger   // by lower-case name
	byTable  map[string][]*trigger // firing order = creation order
	stats    statCounters

	// sortPool recycles sortIter scratch (row headers plus the flat Value
	// arena) across sort executions, so a blocking sort's per-row copies
	// write into a reused arena instead of allocating per row (iter.go).
	sortPool sync.Pool

	// stmts caches parsed statement templates by shape (prepare.go).
	// Compiled plans live on the AST nodes themselves (plan.go), so they
	// share the template's lifetime; schemaVer invalidates them when DDL
	// changes what names resolve to.
	stmts     map[string]*cachedStmt
	schemaVer int64

	// undo is the active transaction's undo log (txn.go); non-nil exactly
	// while a statement is executing under the exclusive lock. Accessed
	// only under the exclusive lock.
	undo *undoLog
	// MVCC state (mvcc.go), all guarded by the writer lock. commitTS is the
	// last committed transaction stamp; nextTxn numbers transactions for row
	// marks. snaps maps open explicit transactions to their snapshot stamps
	// (its minimum is the vacuum horizon). lone is the open transaction
	// writing in place because no other session has looked since it began
	// (nil: none). writer is the write context of the statement currently
	// executing under the exclusive lock; row mutations route through it to
	// claim intents and to decide physical vs versioned form.
	// intentCh is closed and replaced whenever write intents release, waking
	// autocommit statements queued behind an explicit transaction's intent.
	// pendingVac queues committed version chains for the next vacuum pass.
	commitTS   uint64
	nextTxn    uint64
	snaps      map[uint64]uint64
	lone       *Tx
	writer     *writeCtx
	intentCh   chan struct{}
	pendingVac []vacRec

	// wal, when non-nil, is the redo log of a DB opened with Open(dir, …)
	// (durable.go); commits append records to it under the writer lock and
	// wait for durability after releasing it. replaying marks recovery:
	// statements re-executed from the log maintain ddlHist but are not
	// re-appended. ddlHist is the compacted schema-statement history a
	// checkpoint carries (mutated at commit under the writer lock).
	wal       *wal.Log
	walOpts   Options
	replaying bool
	ddlHist   []ddlEntry
	// redoErr is sticky (guarded by the writer lock): once a commit record
	// is lost after its in-memory effects became visible, every later
	// commit fails rather than widen the memory/log divergence.
	redoErr error
	// obs is the published tracing configuration (trace.go); nil — the
	// default — means tracing is off, and the per-statement check is one
	// atomic load. obsMu serializes the copy-on-write updates that publish
	// it; nextHookID numbers OnTrace registrations for cancellation.
	obs        atomic.Pointer[obsState]
	obsMu      sync.Mutex
	nextHookID atomic.Uint64
	// met holds the always-on engine latency histograms (trace.go).
	// Non-nil for every DB.
	met *engineMetrics
	// ckptMu guards the auto-checkpoint lifecycle: ckptBusy admits one at
	// a time, closing stops new ones from starting, and ckptWG lets Close
	// join the in-flight one (Add only ever happens under ckptMu with
	// closing unset, so it cannot race Close's Wait). ckptErr remembers a
	// failed auto-checkpoint for Close to surface.
	ckptMu   sync.Mutex
	ckptBusy bool
	closing  bool
	ckptWG   sync.WaitGroup
	ckptErr  atomic.Pointer[error]

	// Paged storage state (paged.go): pool is the shared buffer pool (set
	// by Open, nil on a NewDB — every paged code path gates on it),
	// pagedDir is where page files and the doublewrite buffer live, and
	// pageErr is the sticky page-I/O failure that poisons the DB rather
	// than let statements run over silently missing rows. ckptHook is a
	// test seam: crash-injection tests fail a paged checkpoint at a named
	// stage to exercise every recovery window.
	pool     *pagePool
	pagedDir string
	pageErr  atomic.Pointer[error]
	ckptHook func(stage string) error
	// pagedCkptMu serializes whole paged checkpoints (Checkpoint's, the
	// auto-checkpoint's, BulkLoad's) with each other: a checkpoint's
	// durable phase runs outside db.mu by design, and a second one
	// capturing under it would race finishFlush over the same pages.
	// Ordering: pagedCkptMu is always taken before db.mu.
	pagedCkptMu sync.Mutex
}

type trigger struct {
	name   string
	table  string
	perRow bool
	body   Stmt
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		tables:   make(map[string]*Table),
		triggers: make(map[string]*trigger),
		byTable:  make(map[string][]*trigger),
		stmts:    make(map[string]*cachedStmt),
		snaps:    make(map[uint64]uint64),
		intentCh: make(chan struct{}),
		met:      newEngineMetrics(),
	}
}

// Stats returns a snapshot of the work counters.
func (db *DB) Stats() Stats {
	return Stats{
		Statements:      db.stats.Statements.Load(),
		TriggerFirings:  db.stats.TriggerFirings.Load(),
		RowsScanned:     db.stats.RowsScanned.Load(),
		RowsInserted:    db.stats.RowsInserted.Load(),
		RowsDeleted:     db.stats.RowsDeleted.Load(),
		RowsUpdated:     db.stats.RowsUpdated.Load(),
		IndexProbes:     db.stats.IndexProbes.Load(),
		FullScans:       db.stats.FullScans.Load(),
		RangeProbes:     db.stats.RangeProbes.Load(),
		SortPasses:      db.stats.SortPasses.Load(),
		RowsSorted:      db.stats.RowsSorted.Load(),
		HashJoinBuilds:  db.stats.HashJoinBuilds.Load(),
		PlanCacheHits:   db.stats.PlanCacheHits.Load(),
		PlanCacheMisses: db.stats.PlanCacheMisses.Load(),

		SnapshotsTaken:   db.stats.SnapshotsTaken.Load(),
		VersionChainHops: db.stats.VersionChainHops.Load(),
		WriteConflicts:   db.stats.WriteConflicts.Load(),
		VersionsVacuumed: db.stats.VersionsVacuumed.Load(),

		PageReads:    db.stats.PageReads.Load(),
		PageWrites:   db.stats.PageWrites.Load(),
		PoolHits:     db.stats.PoolHits.Load(),
		PoolMisses:   db.stats.PoolMisses.Load(),
		Evictions:    db.stats.Evictions.Load(),
		DirtyFlushes: db.stats.DirtyFlushes.Load(),
	}
}

// ResetStats zeroes the work counters.
func (db *DB) ResetStats() {
	db.stats.Statements.Store(0)
	db.stats.TriggerFirings.Store(0)
	db.stats.RowsScanned.Store(0)
	db.stats.RowsInserted.Store(0)
	db.stats.RowsDeleted.Store(0)
	db.stats.RowsUpdated.Store(0)
	db.stats.IndexProbes.Store(0)
	db.stats.FullScans.Store(0)
	db.stats.RangeProbes.Store(0)
	db.stats.SortPasses.Store(0)
	db.stats.RowsSorted.Store(0)
	db.stats.HashJoinBuilds.Store(0)
	db.stats.PlanCacheHits.Store(0)
	db.stats.PlanCacheMisses.Store(0)
	db.stats.SnapshotsTaken.Store(0)
	db.stats.VersionChainHops.Store(0)
	db.stats.WriteConflicts.Store(0)
	db.stats.VersionsVacuumed.Store(0)
	db.stats.PageReads.Store(0)
	db.stats.PageWrites.Store(0)
	db.stats.PoolHits.Store(0)
	db.stats.PoolMisses.Store(0)
	db.stats.Evictions.Store(0)
	db.stats.DirtyFlushes.Store(0)
}

// table returns the named table, or nil. The returned *Table is not
// synchronized: direct mutations bypass the writer lock and the undo log,
// and direct reads see uncommitted versions. Only this package's tests use
// it; everything else reads stored rows through snapshot SQL, counts them
// with RowCount, loads them with BulkLoad, and changes indexes with CREATE
// INDEX / DROP INDEX.
func (db *DB) table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// RowCount returns the number of rows in the named table (0 when absent)
// that a DB-level read sees: what SELECT COUNT(*) on the DB returns, under
// the shared lock, so it is safe against a concurrent writer. Like every
// DB-level read it first upgrades a lone transaction, whose in-place
// writes would otherwise show (mvcc.go). A single-version table answers
// from its live count; a table holding versions counts the rows visible
// at latest-committed.
func (db *DB) RowCount(name string) int {
	db.readLock(nil)
	defer db.mu.RUnlock()
	t := db.tables[strings.ToLower(name)]
	if t == nil {
		return 0
	}
	if t.vers == 0 {
		return t.live
	}
	var c rowCursor
	defer c.release()
	n := 0
	for rid := range t.rows {
		if c.visibleAt(t, rid, snapshot{ts: allTS}) != nil {
			n++
		}
	}
	return n
}

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var names []string
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// Exec executes a statement, returning the number of affected rows
// (inserted, deleted, or updated). args bind the text's `?` placeholders.
// A text without placeholders takes no args; its literals are lifted into
// the shape-keyed plan cache instead, so repeated statement templates
// differing only in literal values parse and plan once.
//
// Every top-level Exec runs in an implicit per-statement transaction: a
// mid-statement error (a unique violation on the nth row, a coercion
// failure after earlier assignments) rolls the statement back completely
// instead of leaving earlier row mutations behind. A multi-statement
// transaction is opened with Begin; the SQL statements BEGIN, COMMIT and
// ROLLBACK are parse errors.
func (db *DB) Exec(sql string, args ...Value) (int, error) {
	return db.write(nil, "exec", sql, args)
}

// write is the write doors' statement span: one trace of kind around
// resolving the text and running it through the transaction write core
// (tx non-nil) or the autocommit one.
func (db *DB) write(tx *Tx, kind, sql string, args []Value) (int, error) {
	qt := db.traceBegin(kind, sql)
	stmt, bind, err := db.prepared(sql, args, qt)
	n := 0
	if err == nil {
		if tx != nil {
			n, err = tx.exec(stmt, bind, sql, args, qt)
		} else {
			n, err = db.autocommit(stmt, bind, sql, args, qt, nil)
		}
	}
	db.traceFinish(qt, n, err)
	return n, err
}

// autocommit is the autocommit write core: it runs one statement under its
// own implicit transaction and, after releasing the writer lock, waits for
// its commit record to become durable — readers blocked on the statement
// see its effects as soon as the in-memory commit finishes, and never wait
// behind the disk. src and logArgs are the statement's redo form: the text
// as given and the caller's arguments (nil when it has none). an, when
// non-nil, collects EXPLAIN ANALYZE actuals.
func (db *DB) autocommit(stmt Stmt, args []Value, src string, logArgs []Value, qt *QueryTrace, an *analyzeRun) (int, error) {
	start := time.Now()
	n, lsn, err := db.runAutocommit(stmt, args, src, logArgs, qt, an)
	if err != nil {
		return 0, err
	}
	if err := db.afterCommit(lsn, qt); err != nil {
		return n, err
	}
	db.met.commit.ObserveSince(start)
	return n, nil
}

// runAutocommit is autocommit's writer-lock critical section. It appends
// the statement's redo record to the log on success and returns the LSN
// afterCommit waits on. The unlock is deferred so a panic inside statement
// execution cannot strand the exclusive lock; the lock may be released and
// reacquired while waiting behind an explicit transaction's write intent.
func (db *DB) runAutocommit(stmt Stmt, args []Value, src string, logArgs []Value, qt *QueryTrace, an *analyzeRun) (int, uint64, error) {
	lockStart := time.Now()
	db.mu.Lock()
	db.met.lockWait.ObserveSince(lockStart)
	defer db.mu.Unlock()
	if qt != nil {
		qt.LockWait = time.Since(lockStart)
	}
	db.stats.Statements.Add(1)
	if db.isNoopLocked(stmt) {
		return 0, 0, nil
	}
	log := newUndoLog()
	for {
		env := newEnv(nil)
		env.args = args
		env.an = an
		// An autocommit writer is a second session, so a lone transaction's
		// in-place writes become versions first. While explicit
		// transactions hold snapshots, writes go down the versioned path so
		// those snapshots keep their view; with none open the statement
		// mutates physically, exactly as before MVCC. The implicit
		// transaction reads latest-committed (allTS): it runs under the
		// exclusive lock, so that is a consistent snapshot.
		db.upgradeLoneLocked()
		var w *writeCtx
		if len(db.snaps) > 0 {
			db.nextTxn++
			w = &writeCtx{txnID: db.nextTxn, snapTS: allTS, versioned: true}
			db.writer = w
			env.snap = snapshot{ts: allTS, self: w.txnID}
		}
		var execStart time.Time
		if qt != nil {
			execStart = time.Now()
		}
		db.undo = log
		n, err := db.execStmt(stmt, env)
		db.undo = nil
		db.writer = nil
		if qt != nil {
			qt.Execute += time.Since(execStart)
		}
		if err == nil {
			var commitStart time.Time
			if qt != nil {
				commitStart = time.Now()
			}
			stamp := db.stampCommitLocked(log, w)
			if w != nil {
				db.releaseIntentsLocked(w)
				db.vacuumPendingLocked()
			}
			log.commit()
			var lsn uint64
			if db.durable() {
				if logged, note := classifyStmt(stmt); logged {
					lsn, err = db.applyRedoLocked([]redoStmt{{sql: src, args: logArgs, note: note}}, stamp)
					if err != nil {
						return 0, 0, fmt.Errorf("relational: logging commit: %w", err)
					}
				}
			}
			if qt != nil {
				qt.Commit += time.Since(commitStart)
			}
			return n, lsn, nil
		}
		log.rollbackTo(0)
		if w != nil {
			db.releaseIntentsLocked(w)
		}
		if !errors.Is(err, errIntentBusy) {
			return 0, 0, err
		}
		// An explicit transaction holds a write intent on a table this
		// statement needs. Autocommit statements wait rather than abort:
		// capture the broadcast channel under the lock, wait unlocked (so
		// the intent holder can commit), then retry from scratch.
		ch := db.intentCh
		db.mu.Unlock()
		waitStart := time.Now()
		<-ch
		db.met.intentWait.ObserveSince(waitStart)
		db.met.intentRetries.Add(1)
		if qt != nil {
			qt.IntentWait += time.Since(waitStart)
			qt.Retries++
		}
		db.mu.Lock()
	}
}

// Query executes a SELECT, returning its result rows; args bind the
// text's `?` placeholders, as for Exec. Queries take the shared lock: any
// number of them run concurrently, serialized only against individual
// writer statements — and since uncommitted writes are marked with their
// transaction id (a lone transaction's in-place writes are upgraded to
// marked versions before the query reads), a query always observes a
// committed version of the database, even while a write transaction sits
// open (mvcc.go). To read a transaction's own uncommitted writes, query
// through its Tx.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	return db.queryRows(nil, "query", sql, args)
}

// QueryEach executes a SELECT, streaming each result row to fn as the
// pipeline produces it instead of materializing the result set — with sort
// elision, an ordered query's first row arrives before the last is read.
// fn must not issue statements on the same DB (a shared lock is held). The
// row slice is reused between calls (the pipeline's buffer-reuse contract;
// this is what makes streaming reads allocation-free per row): fn must
// copy the slice to retain it, though retaining individual Values is
// always safe. It returns the output column names. Like Query, it reads
// committed state.
func (db *DB) QueryEach(sql string, fn func(row []Value) error, args ...Value) ([]string, error) {
	return db.read(nil, "query-each", sql, args, fn)
}

// queryRows is the materialized read: the stream into a collector.
func (db *DB) queryRows(tx *Tx, kind, sql string, args []Value) (*Rows, error) {
	out := &Rows{}
	cols, err := db.read(tx, kind, sql, args, out.appendRow)
	if err != nil {
		return nil, err
	}
	out.Cols = cols
	return out, nil
}

// read is the read doors' statement span: one trace of kind around
// resolving the text and streaming it through the read core.
func (db *DB) read(tx *Tx, kind, sql string, args []Value, fn func([]Value) error) ([]string, error) {
	qt := db.traceBegin(kind, sql)
	var cols []string
	n := 0
	stmt, bind, err := db.prepared(sql, args, qt)
	if err == nil {
		if sel, ok := stmt.(*SelectStmt); ok {
			cols, n, err = db.query(tx, sel, bind, qt, nil, fn)
		} else {
			err = fmt.Errorf("relational: a query requires a SELECT, got %T", stmt)
		}
	}
	db.traceFinish(qt, n, err)
	return cols, err
}

// query is the read core: under the transaction's statement lock (tx
// non-nil) and the shared data lock it counts the statement and streams
// sel's rows into fn, reading at the transaction's snapshot or at
// latest-committed. It returns the output columns and the number of rows
// fn received. an, when non-nil, collects EXPLAIN ANALYZE actuals.
func (db *DB) query(tx *Tx, sel *SelectStmt, args []Value, qt *QueryTrace, an *analyzeRun, fn func([]Value) error) ([]string, int, error) {
	if tx != nil {
		tx.mu.Lock()
		defer tx.mu.Unlock()
		if tx.done {
			return nil, 0, errTxDone
		}
	}
	var lockStart time.Time
	if qt != nil {
		lockStart = time.Now()
	}
	db.readLock(tx)
	defer db.mu.RUnlock()
	var execStart time.Time
	if qt != nil {
		execStart = time.Now()
		qt.LockWait = execStart.Sub(lockStart)
	}
	db.stats.Statements.Add(1)
	env := newEnv(nil)
	env.args = args
	env.an = an
	if tx != nil {
		env.snap = tx.snap()
	}
	// Streaming interleaves execution with fn, so Execute includes the
	// caller's per-row work.
	cs, n, err := db.streamSelect(sel, env, nil, fn)
	if qt != nil {
		qt.Execute = time.Since(execStart)
	}
	if cs == nil {
		return nil, n, err
	}
	return cs.cols, n, err
}

// MustExec executes a statement and panics on error. For schema setup in
// tests and examples.
func (db *DB) MustExec(sql string) int {
	n, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return n
}

// Rows is a materialized query result.
type Rows struct {
	Cols []string
	Data [][]Value
	// order records the sort keys (output column positions) the Data slice
	// is known to be ordered by — set when the producing pipeline ran with
	// an explicit or propagated ORDER BY it could satisfy. Scans over a CTE
	// backed by ordered Rows inherit this property, which is how document
	// order flows into the Sorted Outer Union's branches from Q1.
	order []sortSpec
	// consts records output column positions holding the same value in
	// every row (NULL-padded outer-union columns, equality-pinned columns).
	// Order satisfaction skips over them.
	consts []int
	// single marks a result known to hold at most one row — materialized
	// CTEs record their actual cardinality, EXPLAIN stubs a prediction —
	// so a join over it cannot disturb stream order.
	single bool
	// orderUnique marks the recorded order tuple as unique per row, which
	// a consumer joining below this result needs before refining its order
	// with deeper keys (equal-key rows would restart the deeper order).
	orderUnique bool
}

// appendRow is the materializing collector: the pipeline reuses its row
// buffer (rowIter contract) and a materialized result owns its rows, so
// each one is copied out.
func (r *Rows) appendRow(row []Value) error {
	r.Data = append(r.Data, append(make([]Value, 0, len(row)), row...))
	return nil
}

// execEnv carries named CTE results, the OLD row binding for trigger
// bodies, the statement arguments of the enclosing execution, and
// the MVCC snapshot row visibility is evaluated against.
type execEnv struct {
	ctes   map[string]*Rows
	old    []Value
	oldTab *Table
	args   []Value
	parent *execEnv
	// snap is the visibility snapshot (mvcc.go). Plain reads and physical
	// statements use {ts: allTS} (everything committed, which the lock makes
	// consistent); transactional execution narrows it to the transaction's
	// snapshot stamp plus its own in-flight writes.
	snap snapshot
	// an, when non-nil, is the EXPLAIN ANALYZE collection run this
	// execution reports per-operator actuals into (analyze.go). Nil on
	// every ordinary execution: iterator construction checks it once and
	// builds the uninstrumented pipeline.
	an *analyzeRun
}

func newEnv(parent *execEnv) *execEnv {
	e := &execEnv{ctes: make(map[string]*Rows), parent: parent}
	if parent != nil {
		e.snap = parent.snap
		e.an = parent.an
	} else {
		e.snap = snapshot{ts: allTS}
	}
	return e
}

// lookupArgs returns the nearest bound argument vector up the environment
// chain. Trigger bodies inherit their invoker's environment but contain no
// Param nodes, so inheritance is harmless.
func (e *execEnv) lookupArgs() []Value {
	for env := e; env != nil; env = env.parent {
		if env.args != nil {
			return env.args
		}
	}
	return nil
}

func (e *execEnv) lookupCTE(name string) (*Rows, bool) {
	for env := e; env != nil; env = env.parent {
		if r, ok := env.ctes[strings.ToLower(name)]; ok {
			return r, true
		}
	}
	return nil, false
}

func (e *execEnv) oldRow() ([]Value, *Table) {
	for env := e; env != nil; env = env.parent {
		if env.old != nil {
			return env.old, env.oldTab
		}
	}
	return nil, nil
}

// execStmt dispatches a statement under the exclusive lock.
func (db *DB) execStmt(stmt Stmt, env *execEnv) (int, error) {
	if err := db.pagedErr(); err != nil {
		return 0, err
	}
	if env == nil {
		env = newEnv(nil)
	}
	switch s := stmt.(type) {
	case *CreateTableStmt:
		db.schemaVer++
		return 0, db.createTable(s)
	case *DropTableStmt:
		key := strings.ToLower(s.Name)
		t, ok := db.tables[key]
		if !ok {
			if s.IfExists {
				return 0, nil
			}
			return 0, fmt.Errorf("relational: no table %q", s.Name)
		}
		db.schemaVer++
		delete(db.tables, key)
		t.pgGone(true)
		if db.undo != nil {
			db.undo.recordDDL(func() {
				db.tables[key] = t
				t.pgGone(false)
				db.schemaVer++
			})
		}
		return 0, nil
	case *CreateIndexStmt:
		t := db.tables[strings.ToLower(s.Table)]
		if t == nil {
			return 0, fmt.Errorf("relational: no table %q", s.Table)
		}
		// Both write cores (runAutocommit, Tx.exec) skip a
		// CREATE INDEX of an existing index (isNoopLocked), so this one is
		// new. New indexes change the preferred join order; bump so plans
		// reorder on next use.
		db.schemaVer++
		if s.Ordered || len(s.Columns) > 1 {
			key := orderedKeyName(s.Columns)
			err := t.CreateOrderedIndex(s.Columns...)
			if err == nil && db.undo != nil {
				db.undo.recordDDL(func() {
					delete(t.ordered, key)
					t.indexesChanged()
					db.schemaVer++
				})
			}
			return 0, err
		}
		key := strings.ToLower(s.Columns[0])
		err := t.CreateIndex(s.Columns[0])
		if err == nil && db.undo != nil {
			db.undo.recordDDL(func() {
				delete(t.index, key)
				t.indexesChanged()
				db.schemaVer++
			})
		}
		return 0, err
	case *DropIndexStmt:
		t := db.tables[strings.ToLower(s.Table)]
		if t == nil {
			return 0, fmt.Errorf("relational: no table %q", s.Table)
		}
		_, hash := t.index[strings.ToLower(s.Column)]
		var ordered [][]string
		for _, cols := range t.OrderedIndexes() {
			if strings.EqualFold(cols[0], s.Column) {
				ordered = append(ordered, cols)
			}
		}
		if !t.DropIndex(s.Column) {
			return 0, fmt.Errorf("relational: no index on %s (%s)", s.Table, s.Column)
		}
		db.schemaVer++
		if db.undo != nil {
			db.undo.recordDDL(func() {
				// Rebuild from the rows as they stand rather than reinstate
				// the dropped structures: other writers may have changed
				// the table since. A failed page fault poisons the DB; the
				// next statement reports it.
				if hash {
					_ = t.CreateIndex(s.Column)
				}
				for _, cols := range ordered {
					_ = t.CreateOrderedIndex(cols...)
				}
				db.schemaVer++
			})
		}
		return 0, nil
	case *CreateTriggerStmt:
		key := strings.ToLower(s.Name)
		if _, dup := db.triggers[key]; dup {
			return 0, fmt.Errorf("relational: trigger %q already exists", s.Name)
		}
		tkey := strings.ToLower(s.Table)
		if _, ok := db.tables[tkey]; !ok {
			return 0, fmt.Errorf("relational: no table %q for trigger %q", s.Table, s.Name)
		}
		tr := &trigger{name: s.Name, table: s.Table, perRow: s.PerRow, body: s.Body}
		db.triggers[key] = tr
		db.byTable[tkey] = append(db.byTable[tkey], tr)
		if db.undo != nil {
			db.undo.recordDDL(func() {
				delete(db.triggers, key)
				db.removeTrigger(tkey, tr)
			})
		}
		return 0, nil
	case *DropTriggerStmt:
		key := strings.ToLower(s.Name)
		tr, ok := db.triggers[key]
		if !ok {
			return 0, fmt.Errorf("relational: no trigger %q", s.Name)
		}
		delete(db.triggers, key)
		tkey := strings.ToLower(tr.table)
		pos := db.removeTrigger(tkey, tr)
		if pos >= 0 && db.undo != nil {
			db.undo.recordDDL(func() {
				db.triggers[key] = tr
				list := db.byTable[tkey]
				if pos > len(list) {
					pos = len(list)
				}
				list = append(list, nil)
				copy(list[pos+1:], list[pos:])
				list[pos] = tr
				db.byTable[tkey] = list
			})
		}
		return 0, nil
	case *InsertStmt:
		return db.execInsert(s, env)
	case *DeleteStmt:
		return db.execDelete(s, env)
	case *UpdateStmt:
		return db.execUpdate(s, env)
	case *SelectStmt:
		rows, err := db.execSelect(s, env)
		if err != nil {
			return 0, err
		}
		return len(rows.Data), nil
	default:
		return 0, fmt.Errorf("relational: unsupported statement %T", stmt)
	}
}

// isNoopLocked reports whether stmt is a CREATE INDEX naming an index its
// table already has. Such a statement changes nothing, so it is not
// executed: it bumps no schema version (cached plans stay valid), writes no
// log record and adds no schema-history entry. Caller holds the writer
// lock.
func (db *DB) isNoopLocked(stmt Stmt) bool {
	s, ok := stmt.(*CreateIndexStmt)
	if !ok {
		return false
	}
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return false
	}
	if s.Ordered || len(s.Columns) > 1 {
		return t.ordered[orderedKeyName(s.Columns)] != nil
	}
	return t.index[strings.ToLower(s.Columns[0])] != nil
}

// removeTrigger unlinks tr from its table's firing list, returning the
// position it held (-1 if absent).
func (db *DB) removeTrigger(tkey string, tr *trigger) int {
	list := db.byTable[tkey]
	for i, x := range list {
		if x == tr {
			db.byTable[tkey] = append(list[:i], list[i+1:]...)
			return i
		}
	}
	return -1
}

func (db *DB) createTable(s *CreateTableStmt) error {
	key := strings.ToLower(s.Name)
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("relational: table %q already exists", s.Name)
	}
	schema, err := NewSchema(s.Cols)
	if err != nil {
		return err
	}
	t := newTable(db, s.Name, schema)
	// Key/parent-ID columns are what Shared Inlining always joins on; index
	// them from the start so generated joins probe instead of scan. Temp
	// work areas (table-based insert, §6.2.2) are written once, offset, and
	// drained — index maintenance there is pure overhead.
	if !s.Temp {
		t.autoIndex()
	}
	if db.pool != nil && !s.Temp {
		// Paged backend: persistent tables page their rows; temp work
		// areas stay heap-resident (written once and drained, they would
		// only churn the pool).
		t.pg = newPagedTable(db, t)
	}
	db.tables[key] = t
	if db.undo != nil {
		// Rollback drops the table again — in particular the CREATE TEMP
		// TABLE work areas of a failed table-method insert, which would
		// otherwise linger and block the retry.
		db.undo.recordDDL(func() {
			delete(db.tables, key)
			t.pgGone(true)
			db.schemaVer++
		})
	}
	return nil
}

// fireDeleteTriggers fires the table's triggers after a delete: per-row
// triggers once per deleted row (with OLD bound), then per-statement
// triggers once. Per-statement triggers fire only when rows were actually
// deleted, which both matches the cascading semantics the paper builds on
// them and guarantees termination on recursive schemas.
func (db *DB) fireDeleteTriggers(t *Table, deletedRows [][]Value, env *execEnv) error {
	trs := db.byTable[strings.ToLower(t.Name)]
	if len(trs) == 0 || len(deletedRows) == 0 {
		return nil
	}
	for _, tr := range trs {
		if tr.perRow {
			for _, old := range deletedRows {
				db.stats.TriggerFirings.Add(1)
				tenv := newEnv(env)
				tenv.old = old
				tenv.oldTab = t
				if _, err := db.execStmt(tr.body, tenv); err != nil {
					return fmt.Errorf("relational: trigger %s: %w", tr.name, err)
				}
			}
		} else {
			db.stats.TriggerFirings.Add(1)
			tenv := newEnv(env)
			if _, err := db.execStmt(tr.body, tenv); err != nil {
				return fmt.Errorf("relational: trigger %s: %w", tr.name, err)
			}
		}
	}
	return nil
}
