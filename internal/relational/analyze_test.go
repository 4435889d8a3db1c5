package relational

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// analyzeDB builds a parent/child pair with the three access flavours the
// consistency tests exercise: heap scan (no usable index), hash-index probe
// (parentId), and transient hash join (grp, unindexed).
func analyzeDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE par (id INTEGER, grp INTEGER, name VARCHAR(20))`)
	db.MustExec(`CREATE TABLE kid (id INTEGER, parentId INTEGER, grp INTEGER, pos INTEGER)`)
	db.MustExec(`CREATE INDEX k_pid ON kid (parentId)`)
	for p := 1; p <= 10; p++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO par VALUES (%d, %d, 'p%d')`, p, p%3, p))
		for c := 0; c < 8; c++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO kid VALUES (%d, %d, %d, %d)`, p*100+c, p, c%3, c))
		}
	}
	return db
}

var scannedRe = regexp.MustCompile(`scanned=(\d+)`)

// sumScanned totals the per-operator scanned= annotations of a rendered
// ANALYZE tree.
func sumScanned(t *testing.T, out string) int64 {
	t.Helper()
	var sum int64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "Stats:") {
			continue // the footer repeats the delta; only operator lines count
		}
		for _, m := range scannedRe.FindAllStringSubmatch(line, -1) {
			n, err := strconv.ParseInt(m[1], 10, 64)
			if err != nil {
				t.Fatalf("bad scanned annotation %q: %v", m[0], err)
			}
			sum += n
		}
	}
	return sum
}

// TestAnalyzeScannedMatchesStats: on scan, probe, and join plans the
// per-operator scanned counts must sum to exactly the RowsScanned the
// statement moved — the acceptance invariant tying the per-operator actuals
// to the engine counters.
func TestAnalyzeScannedMatchesStats(t *testing.T) {
	db := analyzeDB(t)
	queries := []string{
		`SELECT id FROM kid WHERE pos >= 5`,                                   // heap scan
		`SELECT k.id FROM par p, kid k WHERE k.parentId = p.id`,               // hash-index probe
		`SELECT k.id FROM par p, kid k WHERE k.grp = p.grp`,                   // transient hash join (build + probe)
		`SELECT k.id FROM par p, kid k WHERE k.parentId = p.id ORDER BY k.id`, // probe + sort
		`SELECT COUNT(id) FROM kid`,                                           // aggregate over scan
		`SELECT id FROM kid WHERE pos = 0 UNION ALL SELECT id FROM par`,       // multi-body
	}
	for _, q := range queries {
		base := db.Stats()
		out, err := db.ExplainAnalyze(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		delta := statsSub(db.Stats(), base)
		if got := sumScanned(t, out); got != delta.RowsScanned {
			t.Errorf("%q: operator scanned sum = %d, stats RowsScanned delta = %d\n%s",
				q, got, delta.RowsScanned, out)
		}
		if !strings.Contains(out, "(actual ") {
			t.Errorf("%q: no actuals annotated:\n%s", q, out)
		}
		if !strings.Contains(out, "Execution: rows=") {
			t.Errorf("%q: missing execution footer:\n%s", q, out)
		}
	}
}

// TestAnalyzeRowsMatchResult: the top operator's rows= must equal the
// statement's result cardinality.
func TestAnalyzeRowsMatchResult(t *testing.T) {
	db := analyzeDB(t)
	rows, err := db.Query(`SELECT id FROM kid WHERE pos >= 5`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := db.ExplainAnalyze(`SELECT id FROM kid WHERE pos >= 5`)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("rows=%d", len(rows.Data))
	first := strings.SplitN(out, "\n", 2)[0]
	if !strings.Contains(first, want) {
		t.Errorf("top operator %q does not report %s", first, want)
	}
	if !strings.Contains(out, fmt.Sprintf("Execution: rows=%d", len(rows.Data))) {
		t.Errorf("footer does not report %s:\n%s", want, out)
	}
}

// TestExplainSQLPrefixRejected: plans are reached through DB.Explain and
// DB.ExplainAnalyze only; the SQL path refuses the EXPLAIN/ANALYZE prefixes
// with a one-line error naming both methods.
func TestExplainSQLPrefixRejected(t *testing.T) {
	db := analyzeDB(t)
	for _, prefix := range []string{"EXPLAIN ", "EXPLAIN ANALYZE ", "ANALYZE ", "explain analyze "} {
		_, err := db.Query(prefix + `SELECT id FROM kid WHERE pos >= 5`)
		if err == nil {
			t.Errorf("Query(%q...) succeeded, want an error", prefix)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "DB.Explain ") || !strings.Contains(msg, "DB.ExplainAnalyze") || strings.Contains(msg, "\n") {
			t.Errorf("Query(%q...): err = %q, want one line naming DB.Explain and DB.ExplainAnalyze", prefix, msg)
		}
	}
}

var actualRe = regexp.MustCompile(` \(actual [^)]*\)$`)

// stripActuals reduces an ANALYZE rendering to its plan: the per-operator
// actuals suffixes and the Execution/Stats footer go.
func stripActuals(out string) string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Execution: ") || strings.HasPrefix(line, "Stats: ") {
			continue
		}
		lines = append(lines, actualRe.ReplaceAllString(line, ""))
	}
	return strings.Join(lines, "\n")
}

// TestExplainMatchesAnalyzeTree: EXPLAIN and EXPLAIN ANALYZE print the same
// plan tree — ANALYZE only adds actuals and a footer — across every operator
// and access-path shape, SELECT and DML alike. want pins the shape each case
// is there to cover.
func TestExplainMatchesAnalyzeTree(t *testing.T) {
	cases := []struct {
		name, sql, want string
		db              func(testing.TB) *DB
	}{
		{"heap scan", `SELECT id FROM kid WHERE pos >= 5`, "Scan kid", analyzeDB},
		{"hash-index probe", `SELECT k.id FROM par p, kid k WHERE k.parentId = p.id`, "IndexProbe kid AS k", analyzeDB},
		{"transient hash join", `SELECT k.id FROM par p, kid k WHERE k.grp = p.grp`, "HashJoin kid AS k", analyzeDB},
		{"distinct", `SELECT DISTINCT grp FROM kid`, "Distinct", analyzeDB},
		{"aggregate", `SELECT COUNT(id) FROM kid WHERE parentId = 4`, "Aggregate", analyzeDB},
		{"order by sort", `SELECT k.id FROM par p, kid k WHERE k.parentId = p.id ORDER BY k.id`, "Sort [k.id]", analyzeDB},
		{"union all", `SELECT id FROM kid WHERE pos = 0 UNION ALL SELECT id FROM par`, "UnionAll", analyzeDB},
		{"cte join", `WITH c(pid) AS (SELECT parentId FROM kid WHERE pos = 0) SELECT p.name FROM c, par p WHERE p.id = c.pid`, "CTE c", analyzeDB},
		{"values", `SELECT 1`, "Values", analyzeDB},
		{"update by probe", `UPDATE kid SET pos = pos + 100 WHERE parentId = 3`, "IndexProbe kid", analyzeDB},
		{"insert select", `INSERT INTO par SELECT id, grp, 'x' FROM kid WHERE pos = 7`, "Insert par", analyzeDB},
		{"in probe", `SELECT id FROM t WHERE k IN (5, 2)`, "InProbe t", inProbeIndexed},
		{"in delete", `DELETE FROM t WHERE k IN (5, 2)`, "InProbe t", inProbeIndexed},
		{"sou", souStatement, "MergeAll [C1, C3]", paperSchema},
		{"range update", `UPDATE Orders SET pos = pos + 1 WHERE parentId = 3 AND pos >= 1`, "RangeScan Orders", paperSchema},
		{"ordered desc", `SELECT id FROM Orders ORDER BY id DESC`, "OrderedScan Orders", paperSchema},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			plan, err := db.Explain(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, c.want) {
				t.Fatalf("plan lacks %q:\n%s", c.want, plan)
			}
			out, err := db.ExplainAnalyze(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := stripActuals(out); got != plan {
				t.Errorf("ANALYZE tree differs from EXPLAIN\nEXPLAIN:\n%s\nANALYZE:\n%s", plan, out)
			}
			if !strings.Contains(out, "(actual ") {
				t.Errorf("ANALYZE carries no actuals:\n%s", out)
			}
		})
	}
}

func inProbeIndexed(tb testing.TB) *DB { return inProbeDB(tb.(*testing.T), true) }

// TestStatsFieldsCovered: Stats, statCounters and the hand-written field
// lists in Stats(), statsSub and ResetStats name the same counters — a
// counter added to one list and missed in another fails here.
func TestStatsFieldsCovered(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	ct := reflect.TypeOf(statCounters{})
	if st.NumField() != ct.NumField() {
		t.Fatalf("Stats has %d fields, statCounters %d", st.NumField(), ct.NumField())
	}
	db := NewDB()
	live := reflect.ValueOf(&db.stats).Elem()
	for i := 0; i < ct.NumField(); i++ {
		if st.Field(i).Name != ct.Field(i).Name {
			t.Fatalf("field %d: Stats.%s vs statCounters.%s", i, st.Field(i).Name, ct.Field(i).Name)
		}
		live.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	snap := db.Stats()
	diff := statsSub(snap, Stats{})
	for i := 0; i < st.NumField(); i++ {
		name, want := st.Field(i).Name, int64(i+1)
		if got := reflect.ValueOf(snap).Field(i).Int(); got != want {
			t.Errorf("Stats().%s = %d, want %d", name, got, want)
		}
		if got := reflect.ValueOf(diff).Field(i).Int(); got != want {
			t.Errorf("statsSub(...).%s = %d, want %d", name, got, want)
		}
	}
	db.ResetStats()
	for i := 0; i < ct.NumField(); i++ {
		if got := live.Field(i).Addr().Interface().(*atomic.Int64).Load(); got != 0 {
			t.Errorf("ResetStats left %s = %d", ct.Field(i).Name, got)
		}
	}
}

// TestAnalyzeDMLExecutes: ANALYZE of a DML statement runs it for real —
// rows actually change — and the match access line carries actuals.
func TestAnalyzeDMLExecutes(t *testing.T) {
	db := analyzeDB(t)
	out, err := db.ExplainAnalyze(`UPDATE kid SET pos = pos + 100 WHERE parentId = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Update kid") || !strings.Contains(out, "(actual rows=8") {
		t.Errorf("unexpected ANALYZE UPDATE output:\n%s", out)
	}
	rows, err := db.Query(`SELECT COUNT(id) FROM kid WHERE pos >= 100`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rows.Data[0][0].Int(); n != 8 {
		t.Errorf("ANALYZE UPDATE mutated %d rows, want 8", n)
	}
	out, err = db.ExplainAnalyze(`DELETE FROM kid WHERE pos >= 100`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Delete kid") || !strings.Contains(out, "rowsDeleted=8") {
		t.Errorf("unexpected ANALYZE DELETE output:\n%s", out)
	}
}

// TestAnalyzeCTETree: the annotated tree recurses into CTE blocks like
// EXPLAIN does, with each CTE's operators carrying their own actuals.
func TestAnalyzeCTETree(t *testing.T) {
	db := analyzeDB(t)
	out, err := db.ExplainAnalyze(
		`WITH a(id, grp) AS (SELECT id, grp FROM kid WHERE pos >= 4)
		 SELECT a.id FROM a, par p WHERE a.grp = p.grp ORDER BY a.id`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CTE a") {
		t.Fatalf("no CTE block:\n%s", out)
	}
	cteAt := strings.Index(out, "CTE a")
	if !strings.Contains(out[cteAt:], "(actual ") {
		t.Errorf("CTE subtree carries no actuals:\n%s", out)
	}
}

// TestAnalyzeRejectsNonStatements: DDL is not analyzable.
func TestAnalyzeRejectsNonStatements(t *testing.T) {
	db := analyzeDB(t)
	for _, sql := range []string{"DROP TABLE kid", "CREATE TABLE x (id INTEGER)"} {
		if _, err := db.ExplainAnalyze(sql); err == nil {
			t.Errorf("ExplainAnalyze(%q) succeeded, want error", sql)
		}
	}
}

// TestIterCloseFlushIdempotent: a pipeline closed twice must flush its
// batched counters exactly once (satellite a) — and an abandoned pipeline
// (opened, partially drained, then closed) must still flush what it
// counted.
func TestIterCloseFlushIdempotent(t *testing.T) {
	db := analyzeDB(t)
	stmt, err := ParseSQL(`SELECT id FROM kid WHERE pos >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)

	// Full drain, double Close: the 80-row scan counts once, not twice.
	base := db.Stats()
	it, _, err := db.buildSelectIter(sel, newEnv(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	it.Close()
	it.Close()
	if d := statsSub(db.Stats(), base); d.RowsScanned != 80 || d.FullScans != 1 {
		t.Errorf("double Close: RowsScanned=%d FullScans=%d, want 80/1", d.RowsScanned, d.FullScans)
	}

	// Abandoned mid-stream: the partial count still flushes on Close.
	base = db.Stats()
	it, _, err = db.buildSelectIter(sel, newEnv(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	it.Close()
	it.Close()
	if d := statsSub(db.Stats(), base); d.RowsScanned == 0 {
		t.Error("abandoned pipeline flushed no scan count on Close")
	}
}
