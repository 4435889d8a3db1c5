package relational

import (
	"strings"
	"testing"
)

// TestExplainIndexScanSelection: an equality predicate on an indexed column
// must plan as an index probe, both for SELECT and for DML row matching.
func TestExplainIndexScanSelection(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (k INTEGER, v VARCHAR)`)
	db.MustExec(`CREATE INDEX idx_k ON t (k)`)

	out, err := db.Explain(`SELECT v FROM t WHERE k = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IndexProbe t (k = 7)") {
		t.Errorf("equality on indexed column should plan an index probe:\n%s", out)
	}

	out, err = db.Explain(`DELETE FROM t WHERE k = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IndexProbe t (k = 7)") {
		t.Errorf("DML equality on indexed column should plan an index probe:\n%s", out)
	}

	// Unindexed column: full scan.
	out, err = db.Explain(`SELECT v FROM t WHERE v = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Scan t") || strings.Contains(out, "IndexProbe") {
		t.Errorf("equality on unindexed column should plan a scan:\n%s", out)
	}
}

// TestExplainJoinOrdering: the greedy orderer seeds at the constant
// equality and follows indexed join edges, so a parent-child-grandchild
// join with a leaf predicate plans bottom-up as index probes.
func TestExplainJoinOrdering(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE P (id INTEGER, Name VARCHAR)`)
	db.MustExec(`CREATE TABLE C (id INTEGER, parentId INTEGER, k VARCHAR)`)
	out, err := db.Explain(`SELECT P.Name FROM P, C WHERE C.parentId = P.id AND C.k = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	// C (holding the constant predicate) seeds; P is probed on its id.
	scanAt := strings.Index(out, "Scan C")
	probeAt := strings.Index(out, "IndexProbe P (id = C.parentId)")
	if scanAt < 0 || probeAt < 0 {
		t.Fatalf("expected leaf-first scan of C and id-probe of P:\n%s", out)
	}
	if probeAt > scanAt {
		t.Errorf("probe of P should be above (before) the scan of C in the pipeline:\n%s", out)
	}
}

// TestExplainHashJoin: an equality join with no supporting index plans as a
// hash join rather than a repeated scan.
func TestExplainHashJoin(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE a (x INTEGER)`)
	db.MustExec(`CREATE TABLE b (y INTEGER)`)
	out, err := db.Explain(`SELECT a.x FROM a, b WHERE b.y = a.x`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "HashJoin b (y = a.x)") {
		t.Errorf("unindexed equality join should plan a hash join:\n%s", out)
	}
}

// TestAutoIndexOnKeyColumns: CREATE TABLE indexes declared key/parent-ID
// columns automatically.
func TestAutoIndexOnKeyColumns(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE n (id INTEGER, parentId INTEGER, v VARCHAR)`)
	cols := db.table("n").IndexedColumns()
	if len(cols) != 2 || cols[0] != "id" || cols[1] != "parentId" {
		t.Errorf("auto-indexed columns = %v, want [id parentId]", cols)
	}
	db.MustExec(`CREATE TABLE plain (a INTEGER, b VARCHAR)`)
	if cols := db.table("plain").IndexedColumns(); len(cols) != 0 {
		t.Errorf("plain table should have no auto-indexes, got %v", cols)
	}
}

// TestPlanCacheHitMiss: statements differing only in literals share one
// cached plan.
func TestPlanCacheHitMiss(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (k INTEGER, v VARCHAR)`)
	db.ResetStats()
	db.MustExec(`INSERT INTO t VALUES (1, 'a')`)
	db.MustExec(`INSERT INTO t VALUES (2, 'b')`)
	db.MustExec(`INSERT INTO t VALUES (3, 'c')`)
	st := db.Stats()
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != 2 {
		t.Errorf("insert template: hits=%d misses=%d, want 2/1", st.PlanCacheHits, st.PlanCacheMisses)
	}
	db.ResetStats()
	for _, k := range []string{"1", "2", "3"} {
		if _, err := db.Query(`SELECT v FROM t WHERE k = ` + k); err != nil {
			t.Fatal(err)
		}
	}
	st = db.Stats()
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != 2 {
		t.Errorf("select template: hits=%d misses=%d, want 2/1", st.PlanCacheHits, st.PlanCacheMisses)
	}
}

// TestPreparedStatements: statement texts with `?` parameters, bound by
// the args of Exec and Query.
func TestPreparedStatements(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (k INTEGER, v VARCHAR)`)
	const ins, sel = `INSERT INTO t VALUES (?, ?)`, `SELECT v FROM t WHERE k = ?`
	for i := 1; i <= 3; i++ {
		if _, err := db.Exec(ins, Int(int64(i)), Text("v")); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(sel, Int(int64(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != Text("v") {
		t.Errorf("prepared query = %v", rows.Data)
	}
	if _, err := db.Query(sel); err == nil {
		t.Error("arg count mismatch should fail")
	}
	if _, err := db.Query(`SELECT v FROM t WHERE k = 1`, Int(1)); err == nil {
		t.Error("args for a text without placeholders should fail")
	}
	if _, err := db.Query(ins, Int(int64(1)), Text("x")); err == nil {
		t.Error("Query on a non-SELECT should fail")
	}
}

// TestHashJoinMatchesIndexJoin: the same equality join must return the same
// multiset whether executed by index probe, hash join, or plain scans.
func TestHashJoinMatchesIndexJoin(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE P (id INTEGER, tag VARCHAR)`)
	db.MustExec(`CREATE TABLE C (id INTEGER, parentId INTEGER)`)
	for i := 1; i <= 20; i++ {
		db.MustExec(`INSERT INTO P VALUES (` + FormatValue(Int(int64(i))) + `, 'p')`)
	}
	for i := 1; i <= 60; i++ {
		db.MustExec(`INSERT INTO C VALUES (` + FormatValue(Int(int64(100+i))) + `, ` + FormatValue(Int(int64(i%20+1))) + `)`)
	}
	const q = `SELECT P.id, C.id FROM P, C WHERE C.parentId = P.id ORDER BY 1, 2`

	db.ResetStats()
	indexed, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.IndexProbes == 0 {
		t.Error("indexed join should use index probes")
	}

	db.table("P").DropIndex("id")
	db.table("C").DropIndex("parentId")
	db.ResetStats()
	hashed, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.HashJoinBuilds == 0 {
		t.Error("unindexed equality join should build a hash table")
	}

	if len(indexed.Data) != 60 || len(hashed.Data) != len(indexed.Data) {
		t.Fatalf("row counts: indexed=%d hashed=%d, want 60", len(indexed.Data), len(hashed.Data))
	}
	for i := range indexed.Data {
		if string(appendRowKey(nil, indexed.Data[i])) != string(appendRowKey(nil, hashed.Data[i])) {
			t.Fatalf("row %d differs: indexed=%v hashed=%v", i, indexed.Data[i], hashed.Data[i])
		}
	}
}

// TestIndexMaintenance: secondary indexes stay consistent across insert,
// update, delete, and trigger-driven cascades.
func TestIndexMaintenance(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE parent (id INTEGER)`)
	db.MustExec(`CREATE TABLE child (id INTEGER, parentId INTEGER)`)
	db.MustExec(`CREATE TRIGGER tr AFTER DELETE ON parent FOR EACH ROW DELETE FROM child WHERE parentId = OLD.id`)

	probeIDs := func(pid int64) string {
		rows, err := db.Query(`SELECT id FROM child WHERE parentId = ` + FormatValue(Int(pid)) + ` ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		var parts []string
		for _, r := range rows.Data {
			parts = append(parts, FormatValue(r[0]))
		}
		return strings.Join(parts, ",")
	}

	db.MustExec(`INSERT INTO parent VALUES (1), (2)`)
	db.MustExec(`INSERT INTO child VALUES (10, 1), (11, 1), (12, 2)`)
	if got := probeIDs(1); got != "10,11" {
		t.Errorf("after insert, probe(1) = %s", got)
	}

	// Update moves a child between buckets.
	db.MustExec(`UPDATE child SET parentId = 2 WHERE id = 11`)
	if got := probeIDs(1); got != "10" {
		t.Errorf("after update, probe(1) = %s", got)
	}
	if got := probeIDs(2); got != "11,12" {
		t.Errorf("after update, probe(2) = %s", got)
	}

	// Trigger-driven cascade unindexes the deleted children.
	db.ResetStats()
	db.MustExec(`DELETE FROM parent WHERE id = 2`)
	if st := db.Stats(); st.TriggerFirings != 1 {
		t.Errorf("trigger firings = %d", st.TriggerFirings)
	}
	if got := probeIDs(2); got != "" {
		t.Errorf("after cascade, probe(2) = %s", got)
	}
	if n := db.table("child").RowCount(); n != 1 {
		t.Errorf("children left = %d, want 1", n)
	}
}

// TestPlanInvalidatedBySchemaChange: a cached statement template must
// replan after DROP/CREATE TABLE moves a column between tables — stale
// unqualified-name resolution would gate the predicate at the wrong join
// level and silently drop rows.
func TestPlanInvalidatedBySchemaChange(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE p (id INTEGER, name VARCHAR)`)
	db.MustExec(`CREATE TABLE c (id INTEGER, parentId INTEGER)`)
	db.MustExec(`INSERT INTO p VALUES (1, 'a')`)
	db.MustExec(`INSERT INTO c VALUES (10, 1)`)
	const q = `SELECT c.id FROM p, c WHERE parentId = p.id AND name = 'a'`
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 {
		t.Fatalf("before schema change: %d rows, want 1", len(rows.Data))
	}
	// Recreate with `name` moved from p to c; the same SQL hits the shape
	// cache but must be replanned against the new schema.
	db.MustExec(`DROP TABLE p`)
	db.MustExec(`DROP TABLE c`)
	db.MustExec(`CREATE TABLE p (id INTEGER)`)
	db.MustExec(`CREATE TABLE c (id INTEGER, parentId INTEGER, name VARCHAR)`)
	db.MustExec(`INSERT INTO p VALUES (1)`)
	db.MustExec(`INSERT INTO c VALUES (10, 1, 'a')`)
	rows, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 {
		t.Fatalf("after schema change: %d rows, want 1 (stale plan?)", len(rows.Data))
	}
}

// TestOrderByPositionalSurvivesCache: positional ORDER BY keys are plan
// structure and must not be lifted into parameters.
func TestOrderByPositionalSurvivesCache(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INTEGER, b INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (2, 1), (1, 2)`)
	rows, err := db.Query(`SELECT a, b FROM t ORDER BY 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != Int(2) || rows.Data[1][0] != Int(1) {
		t.Errorf("positional order = %v", rows.Data)
	}
	// Same shape with a different WHERE literal must still order by column
	// 2, not by a lifted parameter.
	rows, err = db.Query(`SELECT a, b FROM t WHERE a > 0 ORDER BY 2 DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != Int(1) {
		t.Errorf("positional desc order = %v", rows.Data)
	}
}
