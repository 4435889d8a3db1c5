package relational

import (
	"io"
	"time"

	"repro/internal/metrics"
)

// Query tracing. Every client-visible statement path (Exec, Query,
// QueryEach, Prepared.Exec, Tx statements, Tx.Commit, ExplainAnalyze) can
// emit one QueryTrace describing where the statement spent its time:
// parse+plan or plan-cache hit, lock wait, execution, in-memory commit,
// fsync wait, and the Stats counters it moved. OnTrace hooks are the one
// consumer of these spans. Tracing is opt-in and off by default — the
// enabled check is a single atomic pointer load and the disabled path
// allocates nothing, which is what keeps the 0 allocs/row executor pins
// green while the hooks exist.
//
// Alongside the per-statement traces, the DB always maintains a small set
// of engine latency histograms (engineMetrics): commit latency by fsync
// mode, statement-lock wait, intent wait, fsync wait, WAL append/fsync
// timing and group-commit batch size, and vacuum reclaim, plus the
// intent-retry counter. These cost a few time.Now calls per statement —
// never per row — and are exposed through Metrics / WriteMetrics. Work
// counts (rows, probes, conflicts, page I/O) live in Stats only.

// QueryTrace is the span record of one executed statement. Durations not
// applicable to the statement's path (FsyncWait on an in-memory DB,
// Commit on a read) stay zero.
type QueryTrace struct {
	// SQL is the statement text (the `?` shape for prepared statements).
	SQL string
	// Kind names the path that ran the statement: "exec", "query",
	// "query-each", "prepared-exec", "prepared-query", "tx-exec",
	// "tx-commit", or "analyze".
	Kind string
	// Start is when the statement entered the engine; Total the wall time
	// until its result (including durability) was ready.
	Start time.Time
	Total time.Duration
	// Parse is time spent parsing and planning; zero when CacheHit, the
	// statement template came from the shape-keyed plan cache.
	Parse    time.Duration
	CacheHit bool
	// LockWait is time spent waiting for the statement's data-plane lock
	// (exclusive for writes, shared for reads).
	LockWait time.Duration
	// Execute is time inside the executor proper, summed across
	// first-committer-wins retries.
	Execute time.Duration
	// Commit is the in-memory commit: stamping, intent release, vacuum,
	// undo discard, and the redo-log append (an OS write, no fsync).
	Commit time.Duration
	// FsyncWait is time blocked on durability after the lock was released.
	FsyncWait time.Duration
	// IntentWait is time parked behind an explicit transaction's write
	// intent; Retries counts the re-executions that followed.
	IntentWait time.Duration
	Retries    int
	// Rows is the statement's result: rows affected for writes, rows
	// returned for reads.
	Rows int
	// Err is the failure message, empty on success.
	Err string
	// Stats is the delta of the DB's work counters over this statement.
	// Under concurrent statements the delta includes their overlap (the
	// counters are DB-global); it is exact when statements run one at a
	// time.
	Stats Stats

	statsBase Stats
}

// traceHook is one registered OnTrace callback with its cancellation id.
type traceHook struct {
	id uint64
	fn func(*QueryTrace)
}

// obsState is the immutable published form of the DB's tracing
// configuration: the registered OnTrace hooks. The hot path loads it once
// per statement; OnTrace and its cancel functions publish a fresh copy
// under obsMu. A nil obsState means tracing is fully off.
type obsState struct {
	hooks []traceHook
}

// updateObs copies the current observability state, applies f, and
// publishes the result — or publishes nil when no hook remains, so the
// per-statement check degrades back to "one atomic load, off".
func (db *DB) updateObs(f func(s *obsState)) {
	db.obsMu.Lock()
	defer db.obsMu.Unlock()
	var s obsState
	if cur := db.obs.Load(); cur != nil {
		s.hooks = append([]traceHook(nil), cur.hooks...)
	}
	f(&s)
	if len(s.hooks) == 0 {
		db.obs.Store(nil)
		return
	}
	db.obs.Store(&s)
}

// OnTrace registers fn to receive a QueryTrace for every statement the DB
// executes, and returns a function that unregisters it. Hooks run
// synchronously on the statement's goroutine after its locks are
// released; a hook must not issue statements on the same DB handle it is
// observing a transaction path of, and should hand slow work to another
// goroutine.
func (db *DB) OnTrace(fn func(*QueryTrace)) (cancel func()) {
	var id uint64
	db.updateObs(func(s *obsState) {
		id = db.nextHookID.Add(1)
		s.hooks = append(s.hooks, traceHook{id: id, fn: fn})
	})
	return func() {
		db.updateObs(func(s *obsState) {
			for i, h := range s.hooks {
				if h.id == id {
					s.hooks = append(s.hooks[:i], s.hooks[i+1:]...)
					break
				}
			}
		})
	}
}

// traceBegin opens a trace span for one statement, or returns nil when
// tracing is off — the nil *QueryTrace is threaded through the statement
// path and every recording site checks it, so the disabled path costs
// this one atomic load.
func (db *DB) traceBegin(kind, sql string) *QueryTrace {
	if db.obs.Load() == nil {
		return nil
	}
	return &QueryTrace{SQL: sql, Kind: kind, Start: time.Now(), statsBase: db.Stats()}
}

// traceFinish completes the span and dispatches it to the hooks. Callers
// invoke it after releasing engine locks: hooks run user code.
func (db *DB) traceFinish(qt *QueryTrace, rows int, err error) {
	if qt == nil {
		return
	}
	qt.Total = time.Since(qt.Start)
	qt.Rows = rows
	if err != nil {
		qt.Err = err.Error()
	}
	qt.Stats = statsSub(db.Stats(), qt.statsBase)
	obs := db.obs.Load()
	if obs == nil {
		// Tracing was turned off mid-statement; drop the span.
		return
	}
	for _, h := range obs.hooks {
		h.fn(qt)
	}
}

// statsSub returns a−b, field by field.
func statsSub(a, b Stats) Stats {
	return Stats{
		Statements:      a.Statements - b.Statements,
		TriggerFirings:  a.TriggerFirings - b.TriggerFirings,
		RowsScanned:     a.RowsScanned - b.RowsScanned,
		RowsInserted:    a.RowsInserted - b.RowsInserted,
		RowsDeleted:     a.RowsDeleted - b.RowsDeleted,
		RowsUpdated:     a.RowsUpdated - b.RowsUpdated,
		IndexProbes:     a.IndexProbes - b.IndexProbes,
		FullScans:       a.FullScans - b.FullScans,
		RangeProbes:     a.RangeProbes - b.RangeProbes,
		SortPasses:      a.SortPasses - b.SortPasses,
		RowsSorted:      a.RowsSorted - b.RowsSorted,
		HashJoinBuilds:  a.HashJoinBuilds - b.HashJoinBuilds,
		PlanCacheHits:   a.PlanCacheHits - b.PlanCacheHits,
		PlanCacheMisses: a.PlanCacheMisses - b.PlanCacheMisses,

		SnapshotsTaken:   a.SnapshotsTaken - b.SnapshotsTaken,
		VersionChainHops: a.VersionChainHops - b.VersionChainHops,
		WriteConflicts:   a.WriteConflicts - b.WriteConflicts,
		VersionsVacuumed: a.VersionsVacuumed - b.VersionsVacuumed,

		PageReads:    a.PageReads - b.PageReads,
		PageWrites:   a.PageWrites - b.PageWrites,
		PoolHits:     a.PoolHits - b.PoolHits,
		PoolMisses:   a.PoolMisses - b.PoolMisses,
		Evictions:    a.Evictions - b.Evictions,
		DirtyFlushes: a.DirtyFlushes - b.DirtyFlushes,
	}
}

// engineMetrics bundles the always-on latency histograms. Fields are the
// hot-path handles (resolved once at construction, so recording skips the
// registry map); reg backs Metrics()/WriteMetrics().
type engineMetrics struct {
	reg *metrics.Registry
	// commit observes full commit latency — statement entry to durable —
	// under the name "commit_ns_<mode>" ("mem" for in-memory DBs; Open
	// re-points it at the configured fsync mode's name).
	commit *metrics.Histogram
	// lockWait observes the exclusive-lock acquisition wait of write
	// statements; fsyncWait the post-lock durability wait; intentWait time
	// parked behind an explicit transaction's write intent.
	lockWait   *metrics.Histogram
	fsyncWait  *metrics.Histogram
	intentWait *metrics.Histogram
	// vacuumReclaim observes row versions reclaimed per vacuum pass (only
	// passes that reclaimed something).
	vacuumReclaim *metrics.Histogram
	// intentRetries counts autocommit park-and-retry rounds. Every other
	// engine count (conflicts, page I/O, pool hits and evictions) lives in
	// Stats alone.
	intentRetries *metrics.Counter
}

func newEngineMetrics() *engineMetrics {
	reg := metrics.NewRegistry()
	return &engineMetrics{
		reg:           reg,
		commit:        reg.Histogram("commit_ns_mem"),
		lockWait:      reg.Histogram("stmt_lock_wait_ns"),
		fsyncWait:     reg.Histogram("fsync_wait_ns"),
		intentWait:    reg.Histogram("intent_wait_ns"),
		vacuumReclaim: reg.Histogram("vacuum_reclaimed_rows"),
		intentRetries: reg.Counter("intent_retries"),
	}
}

// useSyncMode renames the commit-latency histogram for the configured
// fsync policy. Called once from Open, before the DB is shared.
func (m *engineMetrics) useSyncMode(mode SyncMode) {
	m.commit = m.reg.Histogram("commit_ns_" + mode.String())
}

// Metrics returns a snapshot of the engine's latency histograms (commit
// latency by fsync mode, WAL append/fsync, group-commit batch size, lock
// and intent waits, vacuum reclaim) and the intent-retry counter.
func (db *DB) Metrics() metrics.Snapshot {
	return db.met.reg.Snapshot()
}

// WriteMetrics dumps the engine metrics to w as one flat JSON object in
// expvar's style: counters and gauges as numbers, histograms as
// {count, sum, min, max, mean, p50, p99}.
func (db *DB) WriteMetrics(w io.Writer) error {
	return db.met.reg.WriteJSON(w)
}
