package relational

import (
	"errors"
	"fmt"
	"strings"
)

// Multi-version concurrency control. The PR 3 design held the writer lock
// from Begin to Commit, so one open transaction stalled every concurrent
// reconstruction. Now the exclusive lock covers only individual statements
// and the commit critical section; between them an open transaction's
// uncommitted writes stay in the tables as *marked* versions that no other
// snapshot can see, with the pre-images threaded onto per-row version
// chains (the undo log doubles as the chain builder). Readers take the
// shared lock per query and evaluate visibility against a snapshot
// timestamp; they never wait for an open transaction, only for the short
// statement/commit critical sections.
//
// Mode rule: version chains exist only while a second session could
// observe an intermediate state. An explicit transaction that begins with
// no other snapshot registered is *lone* (db.lone): it writes in place,
// exactly like an autocommit statement, with its undo log holding the
// pre-images and its table intents claimed as usual — nobody else can look,
// because every other session's entry goes through upgradeLoneLocked
// first: a DB-level read (readLock), a second Begin, or an autocommit
// writer. The upgrade turns the transaction's in-place writes into the
// versions it would have written all along and switches it to versioned
// writes until it ends. While no snapshot is registered, autocommit
// statements also write in place; while any is, they write versions. So a
// single client never versions a row, every table's version counter stays
// at zero, and readers never call into the visibility slow path.
//
// Stamps: begin/end fields hold either a committed stamp (an allocation of
// db.commitTS under the writer lock) or an uncommitted mark, markBit|txnID.
// A snapshot {ts, self} sees a version iff its begin is committed ≤ ts or
// is self's own mark, and its end is unset, committed > ts, or a foreign
// mark. Default readers use ts = allTS (every committed stamp) because the
// shared lock they hold excludes commits for the duration of their query.

// markBit distinguishes an uncommitted mark (markBit|txnID) from a
// committed stamp in a version's begin/end field.
const markBit = uint64(1) << 63

// allTS is the highest committed timestamp: a snapshot at allTS sees every
// committed version and no foreign marks.
const allTS = markBit - 1

// rowMeta is the version metadata of a heap row (the newest version lives
// in t.rows[rid] itself). The zero value means "plain committed row":
// begin 0 = born visible to everyone, end 0 = never deleted, no chain.
type rowMeta struct {
	begin uint64
	end   uint64
	older *rowVersion
}

// rowVersion is one superseded version on a row's chain, newest first. row
// is a detached pre-image copy; begin/end bound its visibility window
// (end is the stamp of the transaction that superseded or deleted it).
type rowVersion struct {
	begin uint64
	end   uint64
	row   []Value
	older *rowVersion
}

// snapshot is a reader's view: every version committed at or before ts,
// plus the uncommitted marks of transaction self (0 = none).
type snapshot struct {
	ts   uint64
	self uint64
}

// sees reports whether a version bounded by (begin, end) is visible.
func (sn snapshot) sees(begin, end uint64) bool {
	if begin != 0 {
		if begin&markBit != 0 {
			if begin != markBit|sn.self {
				return false // someone else's uncommitted write
			}
		} else if begin > sn.ts {
			return false // committed after the snapshot
		}
	}
	if end != 0 {
		if end&markBit != 0 {
			if end == markBit|sn.self {
				return false // deleted/superseded by self
			}
		} else if end <= sn.ts {
			return false // deleted/superseded before the snapshot
		}
	}
	return true
}

// isMark reports whether a begin/end field holds an uncommitted mark.
func isMark(v uint64) bool { return v&markBit != 0 }

// visibleRow returns the version of row rid visible to sn, or nil, loading
// the current row through Row (unpinned). Per-row loops read through
// rowCursor.visibleAt instead, which pins pages and inlines the
// single-version memory case.
func (t *Table) visibleRow(rid int, sn snapshot) []Value {
	if old, cur := t.versionAt(rid, sn); !cur {
		return old
	}
	return t.Row(rid)
}

// versionAt is the version-chain walk every visibility read shares. cur
// reports that sn sees the current row, which the caller loads itself —
// pinned or not; otherwise old is the visible superseded version, or nil.
// Chain hops are counted into VersionChainHops — structurally zero for
// single-version tables, which return at the first test.
func (t *Table) versionAt(rid int, sn snapshot) (old []Value, cur bool) {
	if t.vers == 0 || rid < 0 || rid >= len(t.rows) || rid >= len(t.meta) {
		return nil, true
	}
	m := &t.meta[rid]
	if sn.sees(m.begin, m.end) {
		return nil, true
	}
	hops := int64(0)
	for v := m.older; v != nil; v = v.older {
		hops++
		if sn.sees(v.begin, v.end) {
			old = v.row
			break
		}
	}
	if hops > 0 {
		t.db.stats.VersionChainHops.Add(hops)
	}
	return old, false
}

// visKeep returns the scanRangeVis entry filter enforcing snapshot
// visibility over a versioned table's ordered index, or nil for a
// single-version table (no filtering, no closure allocation). An entry
// survives when the snapshot-visible version of its row actually carries
// the entry's key — which simultaneously hides invisible rows and
// deduplicates rows indexed under both old and new keys.
func (t *Table) visKeep(oidx *orderedIndex, sn snapshot) func(k bkey) bool {
	if t.vers == 0 {
		return nil
	}
	return func(k bkey) bool {
		row := t.visibleRow(k.rid, sn)
		return row != nil && compareBVals(k, oidx.keyFor(k.rid, row)) == 0
	}
}

// ensureMeta grows the metadata slice to cover every current row.
func (t *Table) ensureMeta() {
	n := len(t.rows)
	if len(t.meta) >= n {
		return
	}
	if cap(t.meta) >= n {
		// Slots past the old length may hold stale metadata from a
		// rolled-back insert suffix; clear before exposing them.
		old := len(t.meta)
		t.meta = t.meta[:n]
		clear(t.meta[old:])
		return
	}
	// Doubling growth: a bulk insert loop extends meta once per row, so an
	// exact-length reallocation here would be quadratic in table size.
	m := make([]rowMeta, n, max(2*cap(t.meta), n, 16))
	copy(m, t.meta)
	t.meta = m
}

// ErrWriteConflict is returned when first-committer-wins conflict detection
// aborts a statement: the table was written by a transaction that committed
// after this transaction's snapshot (or holds an uncommitted intent on it).
// The failed statement is rolled back; the transaction itself stays open.
var ErrWriteConflict = errors.New("relational: write conflict (first committer wins)")

// errIntentBusy makes an autocommit statement wait: the table is claimed by
// an open explicit transaction. The statement rolls back, releases the
// writer lock, waits for the holder to finish, and retries.
var errIntentBusy = errors.New("relational: table claimed by an open transaction")

// writeCtx is the active statement's writer identity (db.writer, nil
// during an autocommit statement with no snapshot registered). versioned
// selects the row writers' form: marked versions, or in place for a lone
// transaction. claimed accumulates the tables this transaction holds write
// intents on; for an explicit transaction it spans statements until
// commit/rollback.
type writeCtx struct {
	txnID     uint64
	snapTS    uint64
	explicit  bool
	versioned bool
	claimed   []*Table
}

// versioning returns the active writer when it writes versions, else nil.
func (db *DB) versioning() *writeCtx {
	if w := db.writer; w != nil && w.versioned {
		return w
	}
	return nil
}

// readLock takes the shared lock for a read by self (nil: a DB-level
// reader). A read by any session but the lone transaction's own is a
// second session looking, so the lone transaction is upgraded first, under
// the exclusive lock; the check repeats once the shared lock is held, since
// another lone transaction may have begun in between. The reader waits for
// the upgrade, bounded by the write set, never for the transaction to end.
func (db *DB) readLock(self *Tx) {
	db.mu.RLock()
	for db.lone != nil && db.lone != self {
		db.mu.RUnlock()
		db.mu.Lock()
		db.upgradeLoneLocked()
		db.mu.Unlock()
		db.mu.RLock()
	}
}

// upgradeLoneLocked turns the lone transaction's in-place writes into the
// versions it would have written had a second session been there from its
// Begin, and makes it write versions until it ends. The undo log is the
// whole record: for each written row, the oldest entry holds the committed
// image (none for an insert) and the newest says whether the transaction
// deleted it; Table.upgradeRow does the rest. Each row's versioned entries
// take the place of its first entry, so a whole-transaction rollback still
// reverts inserts in reverse rid order and interleaved DDL in its original
// order. Rows of a table the transaction has dropped stay in place: no
// session can reach them, and rollback re-creates the table before it
// reverts them. The transaction is between statements (its statements hold
// the writer lock), so no statement-level rollback reaches back past the
// upgrade. Caller holds the writer lock.
func (db *DB) upgradeLoneLocked() {
	tx := db.lone
	if tx == nil {
		return
	}
	db.lone = nil
	tx.wctx.versioned = true
	type rowKey struct {
		t   *Table
		rid int
	}
	log := tx.log
	newest := make(map[rowKey]*undoEntry, log.n)
	reachable := make(map[*Table]bool)
	for e := range log.entries {
		if e.kind != undoDDL {
			newest[rowKey{e.t, e.rid}] = e
			if _, ok := reachable[e.t]; !ok {
				reachable[e.t] = db.tables[strings.ToLower(e.t.Name)] == e.t
			}
		}
	}
	mark := markBit | tx.id
	out := &undoLog{touched: log.touched, redo: log.redo}
	for e := range log.entries {
		if e.kind == undoDDL || !reachable[e.t] {
			out.push(*e)
			continue
		}
		k := rowKey{e.t, e.rid}
		last, pending := newest[k]
		if !pending {
			continue // converted at the row's first entry
		}
		delete(newest, k)
		var committed, gone []Value
		if e.kind != undoInsert {
			committed = e.row
		}
		if last.kind == undoDelete {
			gone = last.row
		}
		e.t.upgradeRow(e.rid, committed, gone, mark, out)
	}
	tx.log = out
}

// snap returns the snapshot the writer's statements read under.
func (w *writeCtx) snap() snapshot { return snapshot{ts: w.snapTS, self: w.txnID} }

// claimIntentLocked takes (or validates) the active writer's intent on t,
// enforcing first-committer-wins. Explicit transactions never wait: a
// foreign intent or a commit to t after their snapshot is an immediate
// ErrWriteConflict (no-wait keeps the scheme deadlock-free). Autocommit
// statements return errIntentBusy on a foreign intent and retry after the
// holder finishes; they read at allTS, so a prior commit is not a conflict.
// Caller holds the writer lock; a nil db.writer (an autocommit statement
// with no snapshot registered) is a no-op.
func (db *DB) claimIntentLocked(t *Table) error {
	w := db.writer
	if w == nil {
		return nil
	}
	if t.intentTxn == w.txnID {
		return nil
	}
	if t.intentTxn != 0 {
		db.stats.WriteConflicts.Add(1)
		if w.explicit {
			return fmt.Errorf("%w: table %s is claimed by a concurrent transaction", ErrWriteConflict, t.Name)
		}
		return errIntentBusy
	}
	if w.explicit && t.lastCommit > w.snapTS {
		db.stats.WriteConflicts.Add(1)
		return fmt.Errorf("%w: table %s was modified after this transaction began", ErrWriteConflict, t.Name)
	}
	t.intentTxn = w.txnID
	w.claimed = append(w.claimed, t)
	return nil
}

// releaseIntentsLocked drops the writer's table intents and wakes every
// autocommit statement parked on one. Caller holds the writer lock.
func (db *DB) releaseIntentsLocked(w *writeCtx) {
	if len(w.claimed) == 0 {
		return
	}
	for _, t := range w.claimed {
		if t.intentTxn == w.txnID {
			t.intentTxn = 0
		}
	}
	w.claimed = w.claimed[:0]
	close(db.intentCh)
	db.intentCh = make(chan struct{})
}

// stampCommitLocked allocates the next commit stamp, flips the undo log's
// uncommitted marks to it, records it as the touched tables' last commit,
// and queues the touched rows for vacuum. Physical-mode commits (no
// versioned entries) still get a stamp and lastCommit update, keeping
// first-committer-wins exact across mode transitions. Caller holds the
// writer lock.
func (db *DB) stampCommitLocked(log *undoLog, w *writeCtx) uint64 {
	db.commitTS++
	stamp := db.commitTS
	if w != nil {
		mark := markBit | w.txnID
		for e := range log.entries {
			if e.v == nil {
				continue
			}
			t := e.t
			if e.rid < len(t.meta) {
				m := &t.meta[e.rid]
				if m.begin == mark {
					m.begin = stamp
				}
				if m.end == mark {
					m.end = stamp
				}
			}
			for v := e.v.node; v != nil; v = v.older {
				flipped := false
				if v.begin == mark {
					v.begin = stamp
					flipped = true
				}
				if v.end == mark {
					v.end = stamp
					flipped = true
				}
				if !flipped {
					break // older nodes predate this transaction
				}
			}
			db.pendingVac = append(db.pendingVac, vacRec{t: t, rid: e.rid})
		}
	}
	for _, t := range log.touched {
		t.lastCommit = stamp
	}
	return stamp
}

// vacRec queues one row for version-chain truncation.
type vacRec struct {
	t   *Table
	rid int
}

// vacuumHorizonLocked returns the oldest registered snapshot timestamp —
// versions whose end precedes it are invisible to every current and future
// reader. With no snapshots registered the horizon is allTS: everything
// committed is current, so all chains collapse.
func (db *DB) vacuumHorizonLocked() uint64 {
	h := allTS
	for _, ts := range db.snaps {
		if ts < h {
			h = ts
		}
	}
	return h
}

// vacuumPendingLocked truncates version chains no live snapshot can see,
// retrying rows still pinned (open marks, or a horizon behind their
// stamps) on the next pass. Runs at commit, rollback, and snapshot
// unregistration — when the last snapshot goes away, every table returns
// to vers == 0 and the single-version fast paths resume. Caller holds the
// writer lock.
func (db *DB) vacuumPendingLocked() {
	if len(db.pendingVac) == 0 {
		return
	}
	before := db.stats.VersionsVacuumed.Load()
	horizon := db.vacuumHorizonLocked()
	keep := db.pendingVac[:0]
	for _, r := range db.pendingVac {
		if !r.t.vacuumRow(r.rid, horizon, db) {
			keep = append(keep, r)
		}
	}
	for i := len(keep); i < len(db.pendingVac); i++ {
		db.pendingVac[i] = vacRec{}
	}
	db.pendingVac = keep
	if n := db.stats.VersionsVacuumed.Load() - before; n > 0 {
		db.met.vacuumReclaim.Observe(n)
	}
}

// vacuumRow truncates what the horizon allows of row rid's version state,
// returning true when the row is back to plain committed form (nothing
// left to vacuum). Caller holds the writer lock.
func (t *Table) vacuumRow(rid int, horizon uint64, db *DB) bool {
	if rid >= len(t.meta) {
		return true
	}
	m := &t.meta[rid]
	if m.begin == 0 && m.end == 0 && m.older == nil {
		return true
	}
	if isMark(m.begin) || isMark(m.end) {
		return false // owned by an open transaction
	}
	if m.end != 0 && m.end <= horizon {
		// Committed delete behind the horizon: physically remove the row
		// and its whole chain, exactly as a physical-mode delete would have
		// (paged: the page file drops the record at the next checkpoint).
		if row := t.Row(rid); row != nil {
			t.dropRow(rid, row, false)
		}
		n := int64(1)
		for v := m.older; v != nil; v = v.older {
			t.unindex(rid, v.row, nil, false)
			n++
		}
		*m = rowMeta{}
		t.vers--
		db.stats.VersionsVacuumed.Add(n)
		return true
	}
	// Prune the chain suffix no snapshot can see. Chain ends decrease going
	// older (each node was superseded before the one in front of it), so
	// everything past the first prunable node goes with it. A pruned
	// version's index keys come out only when no surviving version — the
	// current row or a retained chain node — still carries them.
	var cut *rowVersion
	for link := &m.older; *link != nil; link = &(*link).older {
		if v := *link; v.end <= horizon {
			cut, *link = v, nil
			break
		}
	}
	if cut != nil {
		survivors := versionRows(t.Row(rid), m.older)
		n := int64(0)
		for v := cut; v != nil; v = v.older {
			t.unindex(rid, v.row, survivors, false)
			n++
		}
		db.stats.VersionsVacuumed.Add(n)
	}
	if m.begin != 0 && m.begin <= horizon && m.older == nil && m.end == 0 {
		// Every snapshot sees this version: finalize to plain form.
		*m = rowMeta{}
		t.vers--
		return true
	}
	return m.begin == 0 && m.end == 0 && m.older == nil
}

// versionRows lists a row's versions: head, then the chain from v on.
func versionRows(head []Value, v *rowVersion) [][]Value {
	rows := [][]Value{head}
	for ; v != nil; v = v.older {
		rows = append(rows, v.row)
	}
	return rows
}
