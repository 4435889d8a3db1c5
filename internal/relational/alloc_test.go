package relational

import (
	"fmt"
	"runtime"
	"testing"
)

// Allocation-regression pins for the unboxed value pipeline. Each pin runs
// the same streaming query over a small and a large table and asserts the
// allocation difference is zero: any per-row allocation on the scan, probe,
// range, or join path multiplies by the row delta and fails loudly. Fixed
// per-query overhead (environment, iterator chain, counters) is deliberately
// not pinned — it does not scale with data.

// allocDB builds parent/child tables sized n with the index flavours the
// pinned access paths need: hash indexes on id/parentId (automatic) and an
// ordered (parentId, pos) index for range windows.
func allocDB(t testing.TB, n int) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE par (id INTEGER, name VARCHAR(32))`)
	db.MustExec(`CREATE TABLE child (id INTEGER, parentId INTEGER, pos INTEGER, payload VARCHAR(32))`)
	db.MustExec(`CREATE ORDERED INDEX oc_pp ON child (parentId, pos)`)
	for p := 1; p <= n; p++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO par VALUES (%d, 'p%d')`, p, p))
		for c := 0; c < 4; c++ {
			id := p*10 + c
			db.MustExec(fmt.Sprintf(`INSERT INTO child VALUES (%d, %d, %d, 'c%d')`, id, p, c, id))
		}
	}
	return db
}

// streamCount drains a query through the streaming path, returning the row
// count (so the compiler cannot elide the work).
func streamCount(t testing.TB, db *DB, q string) int {
	t.Helper()
	n := 0
	if _, err := db.QueryEach(q, func(row []Value) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// perRowAllocs measures the per-row allocation count of query q by
// differencing AllocsPerRun over a small and a large database.
func perRowAllocs(t *testing.T, q string, wantSmall, wantLarge int) float64 {
	t.Helper()
	small := allocDB(t, 8)
	large := allocDB(t, 64)
	// Warm both: first execution populates the statement shape cache, plan
	// caches, and grows the reusable iterator buffers to steady state.
	nSmall := streamCount(t, small, q)
	nLarge := streamCount(t, large, q)
	if nSmall != wantSmall || nLarge != wantLarge {
		t.Fatalf("row counts = %d/%d, want %d/%d (query shape changed?)", nSmall, nLarge, wantSmall, wantLarge)
	}
	const runs = 20
	aSmall := testing.AllocsPerRun(runs, func() { streamCount(t, small, q) })
	aLarge := testing.AllocsPerRun(runs, func() { streamCount(t, large, q) })
	return (aLarge - aSmall) / float64(nLarge-nSmall)
}

func pinZero(t *testing.T, name, q string, wantSmall, wantLarge int) {
	t.Helper()
	if got := perRowAllocs(t, q, wantSmall, wantLarge); got > 0 {
		t.Errorf("%s: %.3f allocs/row, want 0", name, got)
	}
}

// TestAllocPinTableScan: a full heap scan with a non-indexable predicate
// must not allocate per row.
func TestAllocPinTableScan(t *testing.T) {
	pinZero(t, "table scan", `SELECT id, payload FROM child WHERE pos < 3`, 8*3, 64*3)
}

// TestAllocPinHashIndexProbe: a join probing the child hash index once per
// parent row must not allocate per row.
func TestAllocPinHashIndexProbe(t *testing.T) {
	pinZero(t, "hash probe", `SELECT c.id FROM par p, child c WHERE c.parentId = p.id`, 8*4, 64*4)
}

// TestAllocPinOrderedRangeScan: a (parentId, pos) B+tree window per outer
// row must not allocate per row.
func TestAllocPinOrderedRangeScan(t *testing.T) {
	pinZero(t, "range scan", `SELECT c.id FROM par p, child c WHERE c.parentId = p.id AND c.pos >= 1 AND c.pos <= 2`, 8*2, 64*2)
}

// TestAllocPinSort: ORDER BY materializes and sorts every input row; with
// the pooled sort scratch (arena + row headers reused across runs) the
// per-row cost must stay near zero. A small epsilon absorbs the rare GC
// clearing the sync.Pool mid-measurement (one arena regrow amortized over
// the row delta), while still failing loudly on any true per-row
// allocation — the pre-pool baseline was ~1 alloc/row.
func TestAllocPinSort(t *testing.T) {
	got := perRowAllocs(t, `SELECT id, payload FROM child ORDER BY payload, id`, 8*4, 64*4)
	if got > 0.1 {
		t.Errorf("sort: %.3f allocs/row, want ~0", got)
	}
}

// TestAllocPinTextEquality: a TEXT = TEXT scan must not allocate per row
// (the byte compare reads both strings in place).
func TestAllocPinTextEquality(t *testing.T) {
	pinZero(t, "text equality scan", `SELECT id FROM child WHERE payload != 'c80'`, 8*4-1, 64*4-1)
}

// TestAllocPinTracingOn: with a trace hook registered, the per-statement
// span is one fixed allocation — the per-row path must stay untouched, so
// differencing small/large still yields zero. (The tracing-OFF path is
// pinned by every other test in this file: they all run with db.obs nil.)
func TestAllocPinTracingOn(t *testing.T) {
	q := `SELECT id, payload FROM child WHERE pos < 3`
	small := allocDB(t, 8)
	large := allocDB(t, 64)
	defer small.OnTrace(func(*QueryTrace) {})()
	defer large.OnTrace(func(*QueryTrace) {})()
	nSmall := streamCount(t, small, q)
	nLarge := streamCount(t, large, q)
	if nSmall != 8*3 || nLarge != 64*3 {
		t.Fatalf("row counts = %d/%d", nSmall, nLarge)
	}
	const runs = 20
	aSmall := testing.AllocsPerRun(runs, func() { streamCount(t, small, q) })
	aLarge := testing.AllocsPerRun(runs, func() { streamCount(t, large, q) })
	if got := (aLarge - aSmall) / float64(nLarge-nSmall); got > 0 {
		t.Errorf("tracing-on scan: %.3f allocs/row, want 0", got)
	}
}

// TestAllocPinHashJoinProbe: joining on an unindexed column builds one
// transient hash table (its cost scales with the build side, which is held
// constant here by probing a fixed-size build table) — the probe side must
// not allocate per row.
func TestAllocPinHashJoinProbe(t *testing.T) {
	small := allocDB(t, 8)
	large := allocDB(t, 64)
	// dim has the same 4 rows in both databases and no index on pos, so the
	// level compiles to a transient hash join whose build cost is constant
	// while the probe count scales with child — the size difference below
	// therefore isolates the per-probe-row allocations.
	for _, db := range []*DB{small, large} {
		db.MustExec(`CREATE TABLE dim (pos INTEGER, label VARCHAR(8))`)
		for i := 0; i < 4; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO dim VALUES (%d, 'd%d')`, i, i))
		}
	}
	q := `SELECT d.label FROM child c, dim d WHERE d.pos = c.pos`
	nSmall := streamCount(t, small, q)
	nLarge := streamCount(t, large, q)
	if nSmall != 8*4 || nLarge != 64*4 {
		t.Fatalf("row counts = %d/%d", nSmall, nLarge)
	}
	const runs = 20
	aSmall := testing.AllocsPerRun(runs, func() { streamCount(t, small, q) })
	aLarge := testing.AllocsPerRun(runs, func() { streamCount(t, large, q) })
	if got := (aLarge - aSmall) / float64(nLarge-nSmall); got > 0 {
		t.Errorf("hash-join probe: %.3f allocs/row, want 0", got)
	}
}

// TestAllocPinPointUpdateBytes: an autocommit point UPDATE over a table of
// many distinct TEXT values must cost bytes proportional to the statement,
// not to the table. Each statement is an idempotent set (the new value
// appears twice, as the assignment and as the `v != ...` guard), so it both
// binds a never-seen string and stores it; neither may copy a per-DB
// structure sized by the number of distinct stored strings.
func TestAllocPinPointUpdateBytes(t *testing.T) {
	const rows, stmts = 20000, 50
	db := NewDB()
	db.MustExec(`CREATE TABLE t (k VARCHAR(16), v VARCHAR(16))`)
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, Text(fmt.Sprintf("k%d", i)), Text(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	update := func(i int) {
		t.Helper()
		n, err := db.Exec(fmt.Sprintf(`UPDATE t SET v = 'new%d' WHERE k = 'k%d' AND v != 'new%d'`, i, i*397%rows, i))
		if err != nil || n != 1 {
			t.Fatalf("update %d: n=%d err=%v", i, n, err)
		}
	}
	update(0) // warm the shape and plan caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= stmts; i++ {
		update(i)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / stmts; per >= 64<<10 {
		t.Errorf("point update allocates %d B/statement, want < 64 KiB", per)
	}
}

// TestAllocPinPlaceholderExec pins the fixed per-statement cost of `?`
// texts run through the statement doors with bound args: a repeated text is
// one exact-text cache lookup (no lexing, no parse), so it costs no more
// than the handle-based prepared statements it replaced did — 7
// allocations for an autocommit insert, 25 for a point query over an
// unindexed column, 4 for an insert inside a lone transaction (written in
// place, so no version bookkeeping) — and never misses the plan cache. An
// insert stores the row slice it evaluated its values into, and the undo
// log lists touched tables in a slice, not a map.
func TestAllocPinPlaceholderExec(t *testing.T) {
	const ins, sel = `INSERT INTO t VALUES (?, ?)`, `SELECT v FROM t WHERE k = ?`
	db := NewDB()
	db.MustExec(`CREATE TABLE t (k INTEGER, v VARCHAR(16))`)
	k := int64(0)
	insert := func(s Session) {
		k++
		if _, err := s.Exec(ins, Int(k), Text("v")); err != nil {
			t.Fatal(err)
		}
	}
	query := func() {
		if rows, err := db.Query(sel, Int(50)); err != nil || len(rows.Data) != 1 {
			t.Fatalf("point query: %v, %v", rows, err)
		}
	}
	for k < 100 {
		insert(db)
	}
	query()
	misses := db.Stats().PlanCacheMisses
	pin := func(name string, max float64, run func()) {
		t.Helper()
		got := testing.AllocsPerRun(1000, run)
		t.Logf("%s: %.2f allocs/statement", name, got)
		if got > max {
			t.Errorf("%s: %.2f allocs/statement, want <= %.0f", name, got, max)
		}
	}
	// The autocommit pins run before Begin: an open transaction's snapshot
	// sends autocommit writes down the versioned path.
	pin("autocommit insert", 7, func() { insert(db) })
	pin("point query", 25, query)
	tx := db.Begin()
	insert(tx)
	pin("insert in a transaction", 4, func() { insert(tx) })
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().PlanCacheMisses; got != misses {
		t.Errorf("plan cache misses grew from %d to %d over repeated `?` texts", misses, got)
	}
}

// TestAllocPinIndexedInsert pins the per-row allocations of an INSERT …
// SELECT into a table indexed like a shredded relation: a unique id and a
// parentId hash index (both automatic) and two B+trees. The per-row figure
// is the allocation difference between a large and a small load, each
// into a fresh table. With the id column renamed — so it carries neither
// the hash index nor the uniqueness check — the figure must not move: an
// id held by one row is stored inline in its hash index, with no per-key
// allocation.
func TestAllocPinIndexedInsert(t *testing.T) {
	const small, large = 1024, 8192
	load := func(idCol string, n int) uint64 {
		db := NewDB()
		db.MustExec(`CREATE TABLE src (k INTEGER, p INTEGER, pos INTEGER, payload VARCHAR(16))`)
		db.MustExec(fmt.Sprintf(`CREATE TABLE dst (%s INTEGER, parentId INTEGER, pos INTEGER, payload VARCHAR(16))`, idCol))
		db.MustExec(`CREATE ORDERED INDEX dst_pp ON dst (parentId, pos)`)
		db.MustExec(fmt.Sprintf(`CREATE ORDERED INDEX dst_pi ON dst (pos, %s)`, idCol))
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{Int(int64(i)), Int(int64(i / 4)), Int(int64(i % 4)), Text("payload")}
		}
		if err := db.BulkLoad(map[string][][]Value{"src": rows}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := db.Exec(`INSERT INTO dst SELECT k, p, pos, payload FROM src`)
		runtime.ReadMemStats(&after)
		if err != nil || got != n {
			t.Fatalf("INSERT … SELECT: %d rows, %v; want %d", got, err, n)
		}
		return after.Mallocs - before.Mallocs
	}
	perRow := func(idCol string) float64 {
		return float64(load(idCol, large)-load(idCol, small)) / float64(large-small)
	}
	indexed, plain := perRow("id"), perRow("k")
	t.Logf("INSERT … SELECT: %.3f allocs/row with the unique id index, %.3f without", indexed, plain)
	if indexed > 1.75 {
		t.Errorf("indexed INSERT … SELECT: %.3f allocs/row, want <= 1.75", indexed)
	}
	if d := indexed - plain; d > 0.02 {
		t.Errorf("the unique id's index entry costs %.3f allocs/row, want 0", d)
	}
}
