package relational

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// noAutoCkpt keeps the log untouched so crash tests control exactly what
// survives. Small segments force rotation under every workload.
func noAutoCkpt() Options {
	return Options{Sync: SyncOff, CheckpointBytes: -1, SegmentSize: 512}
}

func mustOpenDB(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

func TestOpenCloseReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, noAutoCkpt())
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, name VARCHAR(64))")
	db.MustExec("CREATE ORDERED INDEX oi ON item (parentId, id)")
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, 'n%d')", i+1, i%3, i))
	}
	db.MustExec("DELETE FROM item WHERE parentId = 1")
	db.MustExec("UPDATE item SET name = 'renamed ''x''' WHERE id = 6")
	want := dbDump(db)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2 := mustOpenDB(t, dir, noAutoCkpt())
	defer db2.Close()
	if got := dbDump(db2); got != want {
		t.Fatalf("reopened dump differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPreparedStatementReplay(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, noAutoCkpt())
	db.MustExec("CREATE TABLE item (id INTEGER, name VARCHAR(64))")
	const ins = "INSERT INTO item VALUES (?, ?)"
	if _, err := db.Exec(ins, Int(1), Text("it's quoted")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ins, Int(2), Null); err != nil {
		t.Fatal(err)
	}
	want := dbDump(db)
	db.Close()

	db2 := mustOpenDB(t, dir, noAutoCkpt())
	defer db2.Close()
	if got := dbDump(db2); got != want {
		t.Fatalf("prepared replay dump differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRollbackNotLogged(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, noAutoCkpt())
	db.MustExec("CREATE TABLE item (id INTEGER, name VARCHAR(64))")
	db.MustExec("INSERT INTO item VALUES (1, 'keep')")
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO item VALUES (2, 'discard')"); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	// A failed statement commits nothing either.
	if _, err := db.Exec("INSERT INTO item VALUES (1, 'dup')"); err == nil {
		t.Fatal("duplicate id should fail")
	}
	want := dbDump(db)
	db.Close()

	db2 := mustOpenDB(t, dir, noAutoCkpt())
	defer db2.Close()
	if got := dbDump(db2); got != want {
		t.Fatalf("rolled-back work leaked into the log:\n got:\n%s\nwant:\n%s", got, want)
	}
	if n := db2.RowCount("item"); n != 1 {
		t.Fatalf("RowCount = %d, want 1", n)
	}
}

// crashOp is one workload step applied identically to the durable DB and
// the in-memory shadow.
type crashOp struct {
	tx       bool
	prepared bool
	args     []Value
	stmts    []string
}

// genWorkload builds a deterministic statement mix: inserts, updates,
// deletes, failing statements (unique violations), DDL (index creation,
// temp-table churn), multi-statement transactions, and prepared executions.
func genWorkload(r *rand.Rand, n int) []crashOp {
	ops := []crashOp{
		{stmts: []string{"CREATE TABLE item (id INTEGER, parentId INTEGER, pos INTEGER, name VARCHAR(64))"}},
		{stmts: []string{"CREATE ORDERED INDEX ip ON item (parentId, pos)"}},
	}
	nextID := 1
	for len(ops) < n {
		switch k := r.Intn(10); {
		case k < 4: // plain insert
			ops = append(ops, crashOp{stmts: []string{fmt.Sprintf(
				"INSERT INTO item VALUES (%d, %d, %d, 'n%d')", nextID, r.Intn(4), r.Intn(50), nextID)}})
			nextID++
		case k < 5: // failing insert (duplicate id) — must commit nothing
			if nextID > 1 {
				ops = append(ops, crashOp{stmts: []string{fmt.Sprintf(
					"INSERT INTO item VALUES (%d, 0, 0, 'dup')", 1+r.Intn(nextID-1))}})
			}
		case k < 7: // update a window
			ops = append(ops, crashOp{stmts: []string{fmt.Sprintf(
				"UPDATE item SET pos = pos + 1 WHERE parentId = %d AND pos >= %d", r.Intn(4), r.Intn(40))}})
		case k < 8: // delete
			ops = append(ops, crashOp{stmts: []string{fmt.Sprintf(
				"DELETE FROM item WHERE id = %d", 1+r.Intn(nextID))}})
		case k < 9: // explicit transaction, mixed success/failure inside
			a, b := nextID, nextID+1
			nextID += 2
			ops = append(ops, crashOp{tx: true, stmts: []string{
				fmt.Sprintf("INSERT INTO item VALUES (%d, 1, 0, 'tx-a')", a),
				fmt.Sprintf("INSERT INTO item VALUES (%d, 1, 0, 'dup')", a), // fails, stmt-level rollback
				fmt.Sprintf("INSERT INTO item VALUES (%d, 2, 1, 'tx-b')", b),
				fmt.Sprintf("UPDATE item SET name = 'tx''d' WHERE id = %d", a),
			}})
		default: // prepared insert with args (incl. NULL and quotes)
			ops = append(ops, crashOp{prepared: true,
				stmts: []string{"INSERT INTO item VALUES (?, ?, ?, ?)"},
				args:  []Value{Int(int64(nextID)), Int(int64(r.Intn(4))), Null, Text("pre'par''ed")}})
			nextID++
		}
	}
	return ops
}

// applyOp runs one op, ignoring expected statement failures (both DBs fail
// identically). It reports nothing; callers diff the WAL's LSN to learn
// whether a commit record was produced.
func applyOp(t *testing.T, db *DB, op crashOp) {
	t.Helper()
	switch {
	case op.prepared:
		db.Exec(op.stmts[0], op.args...)
	case op.tx:
		tx := db.Begin()
		for _, s := range op.stmts {
			tx.Exec(s)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	default:
		db.Exec(op.stmts[0])
	}
}

// segFiles returns the log's segment files in LSN order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs) // fixed-width hex names sort by first LSN
	return segs
}

// killAt simulates a crash losing everything past the given byte offset of
// the concatenated log: the segment containing the offset is truncated
// there and all later segments are deleted.
func killAt(t *testing.T, dir string, offset int64) {
	t.Helper()
	segs := segFiles(t, dir)
	var cum int64
	cut := false
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if cut {
			os.Remove(seg)
			continue
		}
		if offset < cum+st.Size() {
			if err := os.Truncate(seg, offset-cum); err != nil {
				t.Fatal(err)
			}
			cut = true
			continue
		}
		cum += st.Size()
	}
}

// TestCrashInjectionRandomKillPoints is the tentpole's proof: for many
// randomized workloads and byte-granular kill points (including mid-record
// torn tails), recovery must reproduce exactly the committed prefix the
// surviving log frames describe — byte-identical dumps against a shadow DB
// that executed the same statements in memory.
func TestCrashInjectionRandomKillPoints(t *testing.T) {
	const killPoints = 60
	for i := 0; i < killPoints; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		dir := t.TempDir()
		db := mustOpenDB(t, dir, noAutoCkpt())
		shadow := NewDB()
		ops := genWorkload(r, 30+r.Intn(20))

		// dumps[k] is the shadow state after the k-th commit record.
		var dumps []string
		for _, op := range ops {
			before := db.wal.LastLSN()
			applyOp(t, db, op)
			applyOp(t, shadow, op)
			after := db.wal.LastLSN()
			switch after - before {
			case 0: // nothing committed (failure or empty transaction)
			case 1:
				dumps = append(dumps, dbDump(shadow))
			default:
				t.Fatalf("op produced %d records", after-before)
			}
		}
		// Abandon db without Close — the OS file contents are the crash
		// image — then lose a random tail.
		var total int64
		for _, seg := range segFiles(t, dir) {
			st, _ := os.Stat(seg)
			total += st.Size()
		}
		cut := r.Int63n(total + 1)
		killAt(t, dir, cut)

		rec := mustOpenDB(t, dir, noAutoCkpt())
		k := rec.RecoveredCommits()
		want := ""
		if k > 0 {
			if k > len(dumps) {
				t.Fatalf("iter %d: recovered %d commits, only %d happened", i, k, len(dumps))
			}
			want = dumps[k-1]
		}
		if got := dbDump(rec); got != want {
			t.Fatalf("iter %d (cut %d of %d, %d/%d commits): recovered state diverges from shadow\n got:\n%s\nwant:\n%s",
				i, cut, total, k, len(dumps), got, want)
		}
		rec.Close()
	}
}

// TestCheckpointPlusTailEqualsFullReplay: the same workload recovered from
// (checkpoint + log tail) and from the full log must agree — with the
// shadow and with each other.
func TestCheckpointPlusTailEqualsFullReplay(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ops := genWorkload(r, 40)
	mid := len(ops) / 2

	dirCkpt, dirFull := t.TempDir(), t.TempDir()
	dbC := mustOpenDB(t, dirCkpt, noAutoCkpt())
	dbF := mustOpenDB(t, dirFull, noAutoCkpt())
	shadow := NewDB()
	for i, op := range ops {
		applyOp(t, dbC, op)
		applyOp(t, dbF, op)
		applyOp(t, shadow, op)
		if i == mid {
			if err := dbC.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	want := dbDump(shadow)
	// Crash both (no Close): recovery runs purely from disk state.
	recC := mustOpenDB(t, dirCkpt, noAutoCkpt())
	defer recC.Close()
	recF := mustOpenDB(t, dirFull, noAutoCkpt())
	defer recF.Close()
	if got := dbDump(recC); got != want {
		t.Fatalf("checkpoint+tail recovery diverges from shadow\n got:\n%s\nwant:\n%s", got, want)
	}
	if got := dbDump(recF); got != want {
		t.Fatalf("full-replay recovery diverges from shadow")
	}
	if recC.RecoveredCommits() >= recF.RecoveredCommits() {
		t.Fatalf("checkpoint did not shorten replay: %d vs %d", recC.RecoveredCommits(), recF.RecoveredCommits())
	}
}

// TestDDLRecoveryAndTempTableCompaction: temp-table churn must not bloat
// the schema history, and live DDL (tables, indexes, triggers) must
// recover.
func TestDDLRecoveryAndTempTableCompaction(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, noAutoCkpt())
	db.MustExec("CREATE TABLE base (id INTEGER, parentId INTEGER, v VARCHAR(32))")
	db.MustExec("CREATE TABLE child (id INTEGER, parentId INTEGER, v VARCHAR(32))")
	db.MustExec("CREATE TRIGGER cascade_c AFTER DELETE ON base FOR EACH ROW DELETE FROM child WHERE parentId = OLD.id")
	for i := 0; i < 20; i++ {
		db.MustExec(fmt.Sprintf("CREATE TEMP TABLE work%d (id INTEGER)", i))
		db.MustExec(fmt.Sprintf("CREATE INDEX wi%d ON work%d (id)", i, i))
		db.MustExec(fmt.Sprintf("DROP TABLE work%d", i))
	}
	db.MustExec("CREATE TRIGGER dropped AFTER DELETE ON base FOR EACH STATEMENT DELETE FROM child WHERE parentId NOT IN (SELECT id FROM base)")
	db.MustExec("DROP TRIGGER dropped")
	if len(db.ddlHist) != 3 {
		t.Fatalf("schema history holds %d entries, want 3 (temp churn must compact away)", len(db.ddlHist))
	}
	db.MustExec("INSERT INTO base VALUES (1, NULL, 'a')")
	db.MustExec("INSERT INTO child VALUES (10, 1, 'c')")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO base VALUES (2, NULL, 'b')")
	want := dbDump(db)
	db.Close()

	rec := mustOpenDB(t, dir, noAutoCkpt())
	defer rec.Close()
	if got := dbDump(rec); got != want {
		t.Fatalf("DDL recovery dump differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	// The recovered trigger must fire.
	rec.MustExec("DELETE FROM base WHERE id = 1")
	if n := rec.RowCount("child"); n != 0 {
		t.Fatalf("recovered trigger did not cascade: %d child rows left", n)
	}
	// And the dropped trigger must not have come back.
	if _, err := rec.Exec("DROP TRIGGER dropped"); err == nil {
		t.Fatal("trigger 'dropped' resurrected by recovery")
	}
}

// TestRepeatedCreateIndexIsFree: a CREATE INDEX naming an existing index
// changes nothing. It bumps no schema version, so cached plans stay valid;
// it appends no log record; and it adds no schema-history entry. A store
// that re-requests its indexes after every reopen therefore keeps one
// history entry per index, however often it reopens.
func TestRepeatedCreateIndexIsFree(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, noAutoCkpt())
	db.MustExec("CREATE TABLE t (id INTEGER, k VARCHAR(32), v INTEGER)")
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'k%d', 0)", i, i))
	}
	db.MustExec("CREATE INDEX ik ON t (k)")
	const point = "SELECT v FROM t WHERE k = 'k3'"
	for round := 0; round < 3; round++ {
		db.Close()
		db = mustOpenDB(t, dir, noAutoCkpt())
		// Compile the statement's plan before the repeated CREATE INDEX.
		if _, err := db.Query(point); err != nil {
			t.Fatal(err)
		}
		ver, logged := db.schemaVer, db.wal.SizeSinceCheckpoint()
		db.MustExec("CREATE INDEX ik ON t (k)")
		if db.schemaVer != ver || db.wal.SizeSinceCheckpoint() != logged {
			t.Errorf("round %d: repeated CREATE INDEX moved the schema version %d→%d or the log %d→%d bytes",
				round, ver, db.schemaVer, logged, db.wal.SizeSinceCheckpoint())
		}
		plan := cachedPlan(t, db, point)
		hits := db.Stats().PlanCacheHits
		if _, err := db.Query(point); err != nil {
			t.Fatal(err)
		}
		if got := db.Stats().PlanCacheHits; got != hits+1 {
			t.Errorf("round %d: plan cache hits %d after a repeated CREATE INDEX, want %d", round, got, hits+1)
		}
		if cachedPlan(t, db, point) != plan {
			t.Errorf("round %d: a repeated CREATE INDEX made the cached statement re-plan", round)
		}
		db.MustExec(fmt.Sprintf("UPDATE t SET v = %d WHERE k = 'k3'", round+1))
		if round == 1 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		for _, h := range db.ddlHist {
			if h.note.kind == ddlCreateIndex {
				n++
			}
		}
		if n != 1 {
			t.Errorf("round %d: schema history holds %d CREATE INDEX entries, want 1", round, n)
		}
	}
	db.Close()
}

// cachedPlan returns the compiled plan riding on the shape-cached AST of a
// single-body SELECT.
func cachedPlan(t *testing.T, db *DB, sql string) *simplePlan {
	t.Helper()
	stmt, _, err := db.prepared(sql, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*SelectStmt).Body[0].plan
}

// TestGroupCommitConcurrentReadersWriters is the PR 3 concurrency stress
// with durability on: writers commit under the group-commit window while
// readers stream under the shared lock. Run with -race; afterwards the log
// must recover to exactly the final committed state.
func TestGroupCommitConcurrentReadersWriters(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, Options{Sync: SyncGroup, GroupWindow: 200 * time.Microsecond, CheckpointBytes: -1})
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, pos INTEGER)")
	for i := 0; i < 24; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, %d)", i+1, i%4, i/4))
	}

	const writers, readers, cycles = 2, 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				if _, err := db.Exec(fmt.Sprintf("UPDATE item SET pos = pos + 1 WHERE parentId = %d", w)); err != nil {
					errs <- err
					return
				}
				tx := db.Begin()
				tx.Exec(fmt.Sprintf("UPDATE item SET pos = pos - 1 WHERE parentId = %d", w))
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles*2; c++ {
				rows, err := db.Query("SELECT id, parentId, pos FROM item ORDER BY parentId, pos")
				if err != nil {
					errs <- err
					return
				}
				if len(rows.Data) != 24 {
					errs <- fmt.Errorf("reader saw %d rows", len(rows.Data))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := dbDump(db)
	db.Close()

	rec := mustOpenDB(t, dir, noAutoCkpt())
	defer rec.Close()
	if got := dbDump(rec); got != want {
		t.Fatalf("group-commit log does not recover to final state")
	}
}

// TestAutoCheckpoint: crossing the byte threshold must checkpoint and
// truncate the log without losing state.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, Options{Sync: SyncOff, SegmentSize: 256, CheckpointBytes: 2048})
	db.MustExec("CREATE TABLE item (id INTEGER, name VARCHAR(64))")
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, 'padding padding padding %d')", i+1, i))
	}
	want := dbDump(db)
	// Close joins any in-flight background checkpoint; at least one must
	// have fired on the way here.
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if db.wal.CheckpointLSN() == 0 {
		t.Fatal("auto-checkpoint never fired")
	}
	rec := mustOpenDB(t, dir, noAutoCkpt())
	defer rec.Close()
	if rec.RecoveredCommits() > 201 {
		t.Fatalf("replayed %d commits; checkpoint should have truncated", rec.RecoveredCommits())
	}
	if got := dbDump(rec); got != want {
		t.Fatalf("auto-checkpointed state differs after recovery")
	}
}

// TestSnapshotCodecRoundTrip: a checkpoint writes every table through the
// page-record codec, and a reopen that reads the rows back from the page
// files reproduces the full observable state — rows, tombstone holes
// (mid-table and trailing), an empty table, the hash and ordered indexes.
// Record encoding is deterministic, truncated records error instead of
// panicking, and Restore of a snapshot taken from the decoded rows is
// refused (a directory DB cannot be reset) without touching the rows.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, pagedOpts())
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, name VARCHAR(64))")
	db.MustExec("CREATE TABLE empty_t (id INTEGER)")
	db.MustExec("CREATE ORDERED INDEX oi ON item (parentId, id)")
	for i := 0; i < 12; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, 'v%d')", i+1, i%3, i))
	}
	db.MustExec("DELETE FROM item WHERE id = 5") // tombstone hole
	db.MustExec("UPDATE item SET name = NULL WHERE id = 7")
	db.MustExec("DELETE FROM item WHERE id = 12") // trailing tombstone
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dbDump(db)
	orig := db.Snapshot().tables["item"]
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec := mustOpenDB(t, dir, pagedOpts())
	defer rec.Close()
	if n := rec.RecoveredCommits(); n != 0 {
		t.Fatalf("reopen replayed %d commits; the rows must come from the pages", n)
	}
	if got := dbDump(rec); got != want {
		t.Fatalf("page round trip differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if st := rec.Stats(); st.PageReads == 0 {
		t.Fatal("reopen read no pages")
	}

	// Deterministic: re-encoding a decoded row is byte-identical to the
	// original row's record, and every proper prefix fails to decode.
	snap := rec.Snapshot()
	for i, row := range snap.tables["item"] {
		if (row == nil) != (orig[i] == nil) {
			t.Fatalf("row %d tombstone mismatch", i)
		}
		if row == nil {
			continue
		}
		enc, err := encodeRowInto(nil, orig[i])
		if err != nil {
			t.Fatal(err)
		}
		enc2, err := encodeRowInto(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("row %d: record encoding is not deterministic across a round-trip", i)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeRowBytes(enc[:cut]); err == nil {
				t.Fatalf("row %d: record truncated at %d decoded without error", i, cut)
			}
		}
	}

	// A directory DB refuses to restore the snapshot and keeps its rows.
	rec.MustExec("DELETE FROM item WHERE parentId = 1")
	rec.MustExec("INSERT INTO item VALUES (99, 0, 'later')")
	after := dbDump(rec)
	if err := rec.Restore(snap); !errors.Is(err, errRestoreDurable) {
		t.Fatalf("Restore on a directory DB: err = %v, want errRestoreDurable", err)
	}
	if got := dbDump(rec); got != after {
		t.Fatalf("refused restore changed the DB:\n got:\n%s\nwant:\n%s", got, after)
	}
}
