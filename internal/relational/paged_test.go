package relational

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// pagedOpts is the crash-test configuration of the paged backend: a tiny
// pool over tiny pages so that eviction, faulting, and relocation all fire
// under modest workloads, with auto-checkpointing off so tests control
// exactly what the recovery sources hold.
func pagedOpts() Options {
	return Options{Sync: SyncOff, CheckpointBytes: -1, SegmentSize: 512,
		PoolPages: 4, PageSize: 512}
}

// TestPagedMemoryEquivalenceRandom runs randomized workloads (inserts,
// updates, deletes, failing statements, DDL, transactions, prepared
// statements) against a paged DB and an in-memory shadow and requires
// byte-identical dumps — with a checkpoint dropped in the middle so flushed
// and still-dirty pages mix, and a reopen at the end so the recovered state
// is held to the same standard. After every checkpoint, and once more while
// an explicit transaction holds an uncommitted update (upgraded to versions
// by a DB-level read), equivQueries must give identical results on both DBs: that
// drives every row-reading site through the paged, the single-version
// memory and the versioned memory and paged table states.
func TestPagedMemoryEquivalenceRandom(t *testing.T) {
	for i := 0; i < 6; i++ {
		r := rand.New(rand.NewSource(int64(100 + i)))
		dir := t.TempDir()
		// A two-page pool: even the smallest workload in the seed range
		// spills past it, so faulting and eviction churn constantly.
		opts := pagedOpts()
		opts.PoolPages = 2
		db := mustOpenDB(t, dir, opts)
		shadow := NewDB()
		ops := genWorkload(r, 200)
		for j, op := range ops {
			applyOp(t, db, op)
			applyOp(t, shadow, op)
			// Periodic checkpoints turn dirty pages clean so the pool can
			// actually evict them; later scans then fault them back in.
			if j%30 == 29 {
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("iter %d: checkpoint at op %d: %v", i, j, err)
				}
				runEquivQueries(t, fmt.Sprintf("iter %d op %d", i, j), j, [2]*DB{db, shadow}, [2]*Tx{}, nil)
			}
		}
		committed := map[string]string{}
		for _, q := range equivQueries {
			if strings.HasPrefix(q.sql, "SELECT") {
				committed[q.sql] = queryDump(t, shadow, q.sql)
			}
		}
		var txs [2]*Tx
		for k, d := range []*DB{db, shadow} {
			txs[k] = d.Begin()
			if _, err := txs[k].Exec("UPDATE item SET pos = pos + 100, name = 'held' WHERE parentId = 2"); err != nil {
				t.Fatalf("iter %d: held update: %v", i, err)
			}
			// Alone, the transaction writes in place; the first DB-level
			// read upgrades its update to versions.
			if d.table("item").vers != 0 {
				t.Fatalf("iter %d: lone held update versioned the table", i)
			}
			if _, err := d.Query("SELECT COUNT(*) FROM item"); err != nil {
				t.Fatalf("iter %d: upgrading read: %v", i, err)
			}
			if d.table("item").vers == 0 {
				t.Fatalf("iter %d: upgraded held update left the table single-version", i)
			}
		}
		runEquivQueries(t, fmt.Sprintf("iter %d held txn", i), len(ops), [2]*DB{db, shadow}, txs, committed)
		for _, tx := range txs {
			if err := tx.Commit(); err != nil {
				t.Fatalf("iter %d: commit held txn: %v", i, err)
			}
		}
		want := dbDump(shadow)
		if got := dbDump(db); got != want {
			t.Fatalf("iter %d: paged dump diverges from memory shadow\n got:\n%s\nwant:\n%s", i, got, want)
		}
		if ev := db.Stats().Evictions; ev == 0 {
			t.Fatalf("iter %d: workload never evicted (pool too large for the test to mean anything)", i)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("iter %d: Close: %v", i, err)
		}

		rec := mustOpenDB(t, dir, pagedOpts())
		if got := dbDump(rec); got != want {
			t.Fatalf("iter %d: recovered paged dump diverges\n got:\n%s\nwant:\n%s", i, got, want)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("iter %d: Close after recovery: %v", i, err)
		}
	}
}

// TestPagedOversizedRowRejected verifies that a row whose encoded record
// cannot fit an empty page is rejected at Insert and Update time (in and
// out of explicit transactions) instead of being accepted and wedging the
// checkpoint's relocation loop, and that the rejecting statement rolls
// back cleanly — the DB keeps working and still checkpoints.
func TestPagedOversizedRowRejected(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, pagedOpts()) // 512-byte pages
	defer db.Close()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE big (id INTEGER, body TEXT)")
	huge := strings.Repeat("x", 600) // > pageSize - header
	if _, err := db.Exec(fmt.Sprintf("INSERT INTO big VALUES (1, '%s')", huge)); err == nil {
		t.Fatal("oversized INSERT accepted")
	}
	mustExec("INSERT INTO big VALUES (1, 'small')")
	if _, err := db.Exec(fmt.Sprintf("UPDATE big SET body = '%s' WHERE id = 1", huge)); err == nil {
		t.Fatal("oversized UPDATE accepted")
	}
	tx := db.Begin()
	if _, err := tx.Exec(fmt.Sprintf("UPDATE big SET body = '%s' WHERE id = 1", huge)); err == nil {
		t.Fatal("oversized versioned UPDATE accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after rejected versioned UPDATE: %v", err)
	}
	rows, err := db.Query("SELECT body FROM big WHERE id = 1")
	if err != nil {
		t.Fatalf("query after rejections: %v", err)
	}
	if len(rows.Data) != 1 {
		t.Fatalf("got %d rows after rejected updates, want 1", len(rows.Data))
	}
	if s, _ := rows.Data[0][0].Text(); s != "small" {
		t.Fatalf("row not restored after rejected updates: body = %q", s)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after rejections: %v", err)
	}
}

// TestPagedLargerThanRAMScan loads a dataset several times the pool budget,
// checkpoints it so pages are clean and evictable, and verifies that scans,
// joins, and point reads stream through the bounded pool byte-identically
// with the memory backend — with evictions actually happening and residency
// staying within the limit.
func TestPagedLargerThanRAMScan(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, pagedOpts())
	shadow := NewDB()
	both := func(sql string) {
		t.Helper()
		db.MustExec(sql)
		shadow.MustExec(sql)
	}
	both("CREATE TABLE item (id INTEGER, parentId INTEGER, pos INTEGER, name VARCHAR(64))")
	both("CREATE ORDERED INDEX ip ON item (parentId, pos)")
	const n = 400
	for i := 0; i < n; i++ {
		both(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, %d, 'name-%04d-%s')",
			i+1, i%7, i/7, i, strings.Repeat("x", 10+i%13)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	_, _, limit := db.PagedPoolStats()
	// The dataset must dwarf the pool: at least 4x as many pages on disk as
	// the pool admits.
	if np := pageFileCount(t, dir, "item"); np < 4*limit {
		t.Fatalf("dataset spans %d pages, want >= 4x pool limit %d — grow the workload", np, limit)
	}

	queries := []string{
		"SELECT pos, id, name FROM item WHERE parentId = 3 ORDER BY pos",
		"SELECT COUNT(*) FROM item WHERE parentId = 5",
		"SELECT a.id, b.id FROM item a, item b WHERE a.parentId = b.parentId AND a.pos = 0 AND b.pos = 1 ORDER BY a.id, b.id",
		"SELECT id FROM item WHERE name = 'name-0123-" + strings.Repeat("x", 10+123%13) + "'",
	}
	for _, q := range queries {
		want := queryDump(t, shadow, q)
		got := queryDump(t, db, q)
		if got != want {
			t.Fatalf("query %q diverges\n got:\n%s\nwant:\n%s", q, got, want)
		}
	}
	st := db.Stats()
	if st.Evictions == 0 || st.PageReads == 0 || st.PoolMisses == 0 {
		t.Fatalf("larger-than-RAM scan did not exercise the pool: %+v", st)
	}
	// The EXPLAIN ANALYZE footer reports the statement's page I/O.
	plan, err := db.ExplainAnalyze("SELECT COUNT(*) FROM item WHERE pos >= 0")
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	// Zero-valued counters are omitted from the footer, and a cyclic scan
	// over a pool smaller than the file is all misses — so assert on the
	// counters this workload must drive, not on poolHits.
	if !strings.Contains(plan, "pageReads=") || !strings.Contains(plan, "poolMisses=") {
		t.Fatalf("EXPLAIN ANALYZE footer lacks pool counters:\n%s", plan)
	}
	if resident, _, limit := db.PagedPoolStats(); resident > limit {
		t.Fatalf("resident pages %d exceed pool limit %d after scans", resident, limit)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// equivQueries reach every row-reading site: a full scan, a hash-index
// probe, a transient hash join, a sorted probe, an ordered range scan, and
// UPDATE/DELETE matching through a probe and through a full scan. plan is
// a fragment the statement's EXPLAIN must contain, so a planner change
// cannot quietly drop a site; {a}…{d} become ids that vary per run.
var equivQueries = []struct{ sql, plan string }{
	{"SELECT id, parentId, pos, name FROM item", "Scan item"},
	{"SELECT id, name FROM item WHERE parentId = 2", "IndexProbe item"},
	{"SELECT a.id, b.id FROM item a, item b WHERE a.name = b.name AND a.id < b.id", "HashJoin"},
	{"SELECT id, name FROM item WHERE parentId = 2 ORDER BY name", "SortedProbe item"},
	{"SELECT id, pos FROM item WHERE parentId = 2 AND pos >= 10 AND pos < 40", "RangeScan item"},
	{"UPDATE item SET name = 'probed' WHERE id = {a}", "IndexProbe item"},
	{"UPDATE item SET pos = pos + 1 WHERE name = 'n{b}'", "Scan item"},
	{"DELETE FROM item WHERE id = {c}", "IndexProbe item"},
	{"DELETE FROM item WHERE name = 'n{d}'", "Scan item"},
}

// runEquivQueries runs equivQueries on dbs (a paged DB and its memory
// shadow) and fails on any difference in result rows or rows affected.
// With open transactions in txs, SELECTs run both outside them — where
// they must match committed, the results from before the transactions
// wrote — and inside them, and DML runs inside them (an autocommit write
// would wait on the transaction's table intent).
func runEquivQueries(t *testing.T, tag string, seq int, dbs [2]*DB, txs [2]*Tx, committed map[string]string) {
	t.Helper()
	id := func(k int) string { return fmt.Sprint(seq/3 + k) }
	ids := strings.NewReplacer("{a}", id(0), "{b}", id(1), "{c}", id(2), "{d}", id(3))
	for _, q := range equivQueries {
		sql := ids.Replace(q.sql)
		var got [2]string
		for k, db := range dbs {
			plan, err := db.Explain(sql)
			if err != nil {
				t.Fatalf("%s: Explain(%s): %v", tag, sql, err)
			}
			if !strings.Contains(plan, q.plan) {
				t.Fatalf("%s: %s plans without %q:\n%s", tag, sql, q.plan, plan)
			}
			tx := txs[k]
			if !strings.HasPrefix(sql, "SELECT") {
				exec := db.Exec
				if tx != nil {
					exec = tx.Exec
				}
				n, err := exec(sql)
				if err != nil {
					t.Fatalf("%s: %s: %v", tag, sql, err)
				}
				got[k] = fmt.Sprintf("%d rows affected", n)
				continue
			}
			got[k] = queryDump(t, db, sql)
			if want, ok := committed[sql]; ok && got[k] != want {
				t.Fatalf("%s: %s outside the open transaction sees its writes\n got:\n%s\nwant:\n%s", tag, sql, got[k], want)
			}
			if tx != nil {
				rows, err := tx.Query(sql)
				if err != nil {
					t.Fatalf("%s: in-txn Query(%s): %v", tag, sql, err)
				}
				got[k] += "-- in txn --\n" + rowsDump(rows)
			}
		}
		if got[0] != got[1] {
			t.Fatalf("%s: %s diverges\n paged:\n%s\nmemory:\n%s", tag, sql, got[0], got[1])
		}
	}
}

func queryDump(t *testing.T, db *DB, sql string) string {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return rowsDump(rows)
}

func rowsDump(rows *Rows) string {
	var b strings.Builder
	for _, r := range rows.Data {
		for _, v := range r {
			fmt.Fprintf(&b, " %s", FormatValue(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pageFileCount(t *testing.T, dir, table string) int {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, pagedFileName(table)))
	if err != nil {
		t.Fatalf("page file: %v", err)
	}
	return int(st.Size()) / 512
}

// TestPagedCheckpointIncremental is the perf claim behind the dirty-page
// protocol: after a small update batch, a checkpoint writes only the dirty
// pages (twice: doublewrite + in place) plus a small marker — under 10% of
// what the first, full checkpoint wrote.
func TestPagedCheckpointIncremental(t *testing.T) {
	dir := t.TempDir()
	opts := pagedOpts()
	opts.PoolPages = 64 // plenty; this test measures bytes, not eviction
	db := mustOpenDB(t, dir, opts)
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, pos INTEGER, name VARCHAR(64))")
	for i := 0; i < 1500; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, %d, 'name-%04d-padpadpad')", i+1, i%7, i/7, i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("full checkpoint: %v", err)
	}
	// PageWrites counts doublewrite copies and in-place writes alike, so
	// this is every page byte the full checkpoint put on disk.
	full := db.Stats().PageWrites * int64(opts.PageSize)

	// A small update batch touching adjacent rids — a handful of pages.
	db.MustExec("UPDATE item SET name = 'renamed' WHERE id >= 10 AND id < 20")

	var dwBytes int64
	db.ckptHook = func(stage string) error {
		if stage == "dw-durable" {
			if st, err := os.Stat(filepath.Join(dir, dwFileName)); err == nil {
				dwBytes = st.Size()
			}
		}
		return nil
	}
	before := db.Stats()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("incremental checkpoint: %v", err)
	}
	db.ckptHook = nil
	delta := db.Stats().PageWrites - before.PageWrites
	if delta == 0 || dwBytes == 0 {
		t.Fatalf("incremental checkpoint wrote nothing (delta=%d dw=%d)", delta, dwBytes)
	}

	// Every image is written twice (doublewrite + in place); the dw file
	// additionally carries the marker payload and framing.
	incremental := 2 * dwBytes
	if incremental >= full/10 {
		t.Fatalf("incremental checkpoint wrote %d bytes (%d pages), want < 10%% of the %d bytes the full checkpoint wrote",
			incremental, delta/2, full)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// writeReopenFixture fills db with rows, checkpoints, and adds a
// post-checkpoint tail so recovery replays WAL on top of pages. It returns
// the dump a reopen must reproduce.
func writeReopenFixture(t *testing.T, db *DB) string {
	t.Helper()
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, name VARCHAR(64))")
	for i := 0; i < 60; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, 'n%d')", i+1, i%3, i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	db.MustExec("DELETE FROM item WHERE parentId = 1")
	db.MustExec("UPDATE item SET name = 'tail' WHERE id = 6")
	return dbDump(db)
}

// TestPagedReopenModes: a directory reopens to its checkpointed pages plus
// the replayed WAL tail.
func TestPagedReopenModes(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, pagedOpts())
	want := writeReopenFixture(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := mustOpenDB(t, dir, pagedOpts())
	if got := dbDump(re); got != want {
		t.Fatalf("reopen diverges\n got:\n%s\nwant:\n%s", got, want)
	}
	if re.RecoveredCommits() == 0 {
		t.Fatal("reopen replayed no WAL tail")
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPagedReopenAdoptsPageSize: a reopen that leaves PageSize zero — as
// cmd/xupdate -data does — adopts the page size the checkpoint recorded,
// while an explicit, different size is still refused.
func TestPagedReopenAdoptsPageSize(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, pagedOpts()) // 512-byte pages
	want := writeReopenFixture(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	opts := pagedOpts()
	opts.PageSize = 0
	re := mustOpenDB(t, dir, opts)
	if got := dbDump(re); got != want {
		t.Fatalf("zero-PageSize reopen diverges\n got:\n%s\nwant:\n%s", got, want)
	}
	if ps := re.pool.pageSize; ps != 512 {
		t.Fatalf("reopened pool uses %d-byte pages, want the recorded 512", ps)
	}
	// The adopted size carries into the next checkpoint and reopen.
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	opts.PageSize = 1024
	if db, err := Open(dir, opts); err == nil {
		db.Close()
		t.Fatal("Open accepted a page size different from the checkpoint's")
	}
	re = mustOpenDB(t, dir, pagedOpts())
	if got := dbDump(re); got != want {
		t.Fatalf("reopen after adopted-size checkpoint diverges\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPagedCrashInjectionRandomKillPoints extends the PR 4 crash suite to
// the paged backend: randomized workloads with a mid-workload paged
// checkpoint, a crash losing a random byte suffix of the log, and recovery
// (checkpointed pages + WAL tail) that must match the shadow's state after
// exactly the commits that survived.
func TestPagedCrashInjectionRandomKillPoints(t *testing.T) {
	const killPoints = 25
	for i := 0; i < killPoints; i++ {
		r := rand.New(rand.NewSource(int64(500 + i)))
		dir := t.TempDir()
		db := mustOpenDB(t, dir, pagedOpts())
		shadow := NewDB()
		ops := genWorkload(r, 40+r.Intn(20))
		ckptAt := 5 + r.Intn(len(ops)-5)

		var dumps []string
		base := 0 // commits already folded into the checkpoint
		for j, op := range ops {
			before := db.wal.LastLSN()
			applyOp(t, db, op)
			applyOp(t, shadow, op)
			after := db.wal.LastLSN()
			switch after - before {
			case 0:
			case 1:
				dumps = append(dumps, dbDump(shadow))
			default:
				t.Fatalf("op produced %d records", after-before)
			}
			if j == ckptAt {
				if err := db.Checkpoint(); err != nil {
					t.Fatalf("iter %d: checkpoint: %v", i, err)
				}
				base = len(dumps)
			}
		}
		// Crash image: abandon without Close, lose a random tail of the log.
		var total int64
		for _, seg := range segFiles(t, dir) {
			st, _ := os.Stat(seg)
			total += st.Size()
		}
		killAt(t, dir, r.Int63n(total+1))

		rec := mustOpenDB(t, dir, pagedOpts())
		k := base + rec.RecoveredCommits()
		want := ""
		if k > 0 {
			if k > len(dumps) {
				t.Fatalf("iter %d: recovered past the end (%d of %d commits)", i, k, len(dumps))
			}
			want = dumps[k-1]
		}
		if got := dbDump(rec); got != want {
			t.Fatalf("iter %d (ckpt after commit %d, %d/%d commits): paged recovery diverges\n got:\n%s\nwant:\n%s",
				i, base, k, len(dumps), got, want)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("iter %d: Close: %v", i, err)
		}
	}
}

// FuzzDecodePagedPayload drives arbitrary bytes through the checkpoint
// marker decoder, which parses every checkpoint Open reads: corrupt input
// must return an error — never panic, never over-allocate from a length
// field — and a payload that decodes must survive an encode/decode round
// trip with counts attachPagedTables can use.
func FuzzDecodePagedPayload(f *testing.F) {
	f.Add(encodePagedPayload(512, nil, nil))
	f.Add(encodePagedPayload(16384,
		[]string{"CREATE TABLE item (id INTEGER, name VARCHAR(64))", "CREATE ORDERED INDEX ip ON item (id, name)"},
		[]pagedTableMeta{{name: "item", nrows: 60, npages: 3}, {name: "empty_t"}}))
	f.Add(encodePagedPayload(1<<26, []string{""}, []pagedTableMeta{{name: "x%2fy", nrows: 1 << 31, npages: 1}}))
	f.Add([]byte(ckptMagicV2))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, ddl, metas, err := decodePagedPayload(data)
		if err != nil {
			return
		}
		for _, m := range metas {
			if m.nrows < 0 || m.npages < 0 {
				t.Fatalf("decoded negative counts: %+v", m)
			}
		}
		ps2, ddl2, metas2, err := decodePagedPayload(encodePagedPayload(ps, ddl, metas))
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if ps2 != ps || !reflect.DeepEqual(ddl2, ddl) || !reflect.DeepEqual(metas2, metas) {
			t.Fatalf("round-trip mismatch")
		}
	})
}

// errInjected simulates a crash inside the checkpoint's durable phase.
var errInjected = fmt.Errorf("injected checkpoint crash")

// TestPagedCheckpointCrashStages kills the checkpoint at every stage of its
// durable protocol — doublewrite just landed, a page write torn one third
// of the way through, pages durable but the marker missing, and everything
// durable with the doublewrite buffer left behind — and requires recovery
// to reproduce the full committed state every time. The torn-page stage is
// the one the doublewrite buffer exists for: the page file holds a
// checksum-failing page, and recovery must rebuild it from the buffer
// rather than ever serving it.
func TestPagedCheckpointCrashStages(t *testing.T) {
	stages := []string{"dw-durable", "page-write:0", "pages-durable", "marked"}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			db := mustOpenDB(t, dir, pagedOpts())
			shadow := NewDB()
			r := rand.New(rand.NewSource(42))
			ops := genWorkload(r, 50)
			for j, op := range ops {
				applyOp(t, db, op)
				applyOp(t, shadow, op)
				if j == 20 {
					if err := db.Checkpoint(); err != nil {
						t.Fatalf("first checkpoint: %v", err)
					}
				}
			}
			want := dbDump(shadow)

			db.ckptHook = func(s string) error {
				if s == stage {
					return errInjected
				}
				return nil
			}
			if err := db.Checkpoint(); err != errInjected {
				t.Fatalf("Checkpoint with %s kill = %v, want injected crash", stage, err)
			}
			// Abandon db (crash); the directory is the recovery image.
			rec := mustOpenDB(t, dir, pagedOpts())
			if got := dbDump(rec); got != want {
				t.Fatalf("recovery after %s crash diverges\n got:\n%s\nwant:\n%s", stage, got, want)
			}
			// The interrupted checkpoint must leave no doublewrite debris.
			if _, err := os.Stat(filepath.Join(dir, dwFileName)); !os.IsNotExist(err) {
				t.Fatalf("dw.buf survives recovery (err=%v)", err)
			}
			if err := rec.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestRemoveFilesAfterCheckpointCrash: a checkpoint killed once its
// doublewrite buffer or its pages are durable leaves files beside the log
// that recovery reads, and a reopen would finish the checkpoint from them.
// RemoveFiles deletes those too, so the directory reopens empty.
func TestRemoveFilesAfterCheckpointCrash(t *testing.T) {
	for _, stage := range []string{"dw-durable", "pages-durable"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			db := mustOpenDB(t, dir, pagedOpts())
			db.MustExec("CREATE TABLE item (id INTEGER, name VARCHAR(64))")
			for i := 0; i < 50; i++ {
				db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, 'n%d')", i+1, i))
			}
			db.ckptHook = func(s string) error {
				if s == stage {
					return errInjected
				}
				return nil
			}
			if err := db.Checkpoint(); err != errInjected {
				t.Fatalf("Checkpoint with %s kill = %v, want injected crash", stage, err)
			}
			// Abandon db (crash), then remove what the directory holds.
			if err := RemoveFiles(dir); err != nil {
				t.Fatal(err)
			}
			rec := mustOpenDB(t, dir, pagedOpts())
			defer rec.Close()
			if names := rec.TableNames(); len(names) != 0 {
				t.Fatalf("reopened after RemoveFiles with tables %v, want none", names)
			}
		})
	}
}

// TestPagedCorruptPageFailsOpen: a page that fails its checksum with no
// doublewrite buffer to rebuild it from is real corruption; Open must fail
// loudly rather than serve the page.
func TestPagedCorruptPageFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, pagedOpts())
	db.MustExec("CREATE TABLE item (id INTEGER, name VARCHAR(64))")
	for i := 0; i < 50; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, 'n%d')", i+1, i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, pagedFileName("item"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[100] ^= 0xff // inside the first page's records
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(dir, pagedOpts()); err == nil {
		db.Close()
		t.Fatal("Open served a corrupt page file")
	}
}

// TestPagedMVCC drives the paged backend through version-chain territory:
// an explicit transaction updates and deletes under its snapshot while
// concurrent readers must keep seeing the pre-transaction state (versioned
// rows and versioned deletes on paged tables), the open transaction blocks
// a paged checkpoint (errCkptOpenTxn), and after commit the checkpoint
// vacuums the chains so the pages carry exactly the committed state — which
// recovery must reproduce, matching a memory shadow of the same schedule.
func TestPagedMVCC(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, pagedOpts())
	shadow := NewDB()
	run := func(d *DB) {
		d.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, name VARCHAR(64))")
		for i := 0; i < 80; i++ {
			d.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, 'n%d')", i+1, i%5, i))
		}
		tx := d.Begin()
		if _, err := tx.Exec("UPDATE item SET name = 'txn' WHERE parentId = 2"); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("DELETE FROM item WHERE parentId = 4"); err != nil {
			t.Fatal(err)
		}
		// A concurrent reader still sees the pre-transaction state: no
		// 'txn' names, and every parentId=4 row alive — even when serving
		// superseded versions requires faulting their pages back in.
		if got := queryDump(t, d, "SELECT id FROM item WHERE name = 'txn' ORDER BY id"); got != "" {
			t.Fatalf("uncommitted update visible outside the transaction:\n%s", got)
		}
		want := queryDump(t, d, "SELECT id FROM item WHERE parentId = 4 ORDER BY id")
		if strings.Count(want, "\n") != 16 {
			t.Fatalf("reader lost uncommitted-deleted rows: %q", want)
		}
		if d == db {
			if err := d.Checkpoint(); err != errCkptOpenTxn {
				t.Fatalf("Checkpoint under open txn = %v, want errCkptOpenTxn", err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	run(db)
	run(shadow)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("post-commit checkpoint: %v", err)
	}
	want := dbDump(shadow)
	if got := dbDump(db); got != want {
		t.Fatalf("paged MVCC dump diverges\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec := mustOpenDB(t, dir, pagedOpts())
	if got := dbDump(rec); got != want {
		t.Fatalf("recovered paged MVCC dump diverges\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPagedConcurrentStress runs probes, ordered scans and self-joins from
// four reader goroutines against a two-page pool — so each reader's page
// cursor constantly faults and evicts the others' pages through the pool
// mutex — while a writer churns rows and checkpoints. Run under -race this
// is the paged backend's concurrency proof; the final state must still
// match a serial shadow of the same writes.
func TestPagedConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	opts := pagedOpts()
	opts.PoolPages = 2
	db := mustOpenDB(t, dir, opts)
	shadow := NewDB()
	writes := []string{
		"CREATE TABLE item (id INTEGER, parentId INTEGER, pos INTEGER, name VARCHAR(64))",
		"CREATE ORDERED INDEX ip ON item (parentId, pos)",
	}
	for i := 0; i < 300; i++ {
		writes = append(writes, fmt.Sprintf("INSERT INTO item VALUES (%d, %d, %d, 'name-%04d')", i+1, i%5, i/5, i))
	}
	for i := 0; i < 60; i++ {
		switch i % 3 {
		case 0:
			writes = append(writes, fmt.Sprintf("UPDATE item SET name = 'u%d' WHERE id = %d", i, i*4+1))
		case 1:
			writes = append(writes, fmt.Sprintf("DELETE FROM item WHERE id = %d", i*4+2))
		default:
			writes = append(writes, fmt.Sprintf("INSERT INTO item VALUES (%d, %d, %d, 'late-%d')", 1000+i, i%5, 99, i))
		}
	}
	// Setup phase so the readers have data from the start.
	for _, s := range writes[:150] {
		db.MustExec(s)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, q := range []string{
					"SELECT COUNT(*) FROM item WHERE parentId = 3",
					"SELECT pos, id FROM item WHERE parentId = 2 ORDER BY pos",
					"SELECT a.id, b.id FROM item a, item b WHERE a.parentId = b.parentId AND a.pos = 7 AND b.pos = 8",
				} {
					if _, err := db.Query(q); err != nil {
						select {
						case errc <- fmt.Errorf("query %q: %w", q, err):
						default:
						}
						return
					}
				}
			}
		}()
	}
	for i, s := range writes[150:] {
		db.MustExec(s)
		if i%40 == 39 {
			// Concurrent readers hold snapshots; a blocked checkpoint just
			// reports errCkptOpenTxn and the next one retries.
			if err := db.Checkpoint(); err != nil && err != errCkptOpenTxn {
				t.Fatalf("checkpoint under readers: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	for _, s := range writes {
		shadow.MustExec(s)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	want := dbDump(shadow)
	if got := dbDump(db); got != want {
		t.Fatalf("stressed paged dump diverges\n got:\n%s\nwant:\n%s", got, want)
	}
	if db.Stats().Evictions == 0 {
		t.Fatal("stress never evicted")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
