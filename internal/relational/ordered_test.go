package relational

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Ordered-vs-unordered equivalence: every ORDER BY / range query must return
// the identical row sequence with ordered indexes (range scans, ordered
// probes, sort elision, merge) and without them (full scans plus the
// blocking sortIter). Randomized parent/child documents cover duplicate
// keys, NULLs, DESC, and multi-key orderings.

// buildRandomDoc loads a two-table parent/child "document" with randomized
// positions and values. Child ids are unique but inserted out of id order,
// so elided and sorted paths only agree if tie-breaking matches exactly.
func buildRandomDoc(t testing.TB, seed int64, ordered bool) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE Par (id INTEGER, parentId INTEGER, name VARCHAR(20))`)
	db.MustExec(`CREATE TABLE Kid (id INTEGER, parentId INTEGER, pos INTEGER, val VARCHAR(20))`)
	if ordered {
		db.MustExec(`CREATE ORDERED INDEX op_id ON Par (id)`)
		db.MustExec(`CREATE ORDERED INDEX ok_id ON Kid (id)`)
		db.MustExec(`CREATE ORDERED INDEX ok_pid ON Kid (parentId, id)`)
		db.MustExec(`CREATE ORDERED INDEX ok_pos ON Kid (parentId, pos)`)
	}
	rng := rand.New(rand.NewSource(seed))
	nPar := 8 + rng.Intn(8)
	kidID := 1000
	for p := 1; p <= nPar; p++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO Par VALUES (%d, NULL, 'p%d')`, p, p))
	}
	// Children inserted in shuffled order with occasional NULL values and
	// duplicate positions.
	type kid struct{ id, parent, pos int }
	var kids []kid
	for p := 1; p <= nPar; p++ {
		n := rng.Intn(7)
		for i := 0; i < n; i++ {
			kids = append(kids, kid{kidID, p, rng.Intn(5)})
			kidID++
		}
	}
	rng.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
	for _, k := range kids {
		val := fmt.Sprintf("'v%d'", rng.Intn(4))
		if rng.Intn(6) == 0 {
			val = "NULL"
		}
		db.MustExec(fmt.Sprintf(`INSERT INTO Kid VALUES (%d, %d, %d, %s)`, k.id, k.parent, k.pos, val))
	}
	// Random updates and deletes exercise incremental index maintenance.
	for i := 0; i < 10; i++ {
		id := 1000 + rng.Intn(kidID-1000)
		switch rng.Intn(3) {
		case 0:
			db.MustExec(fmt.Sprintf(`DELETE FROM Kid WHERE id = %d`, id))
		case 1:
			db.MustExec(fmt.Sprintf(`UPDATE Kid SET pos = %d WHERE id = %d`, rng.Intn(5), id))
		default:
			db.MustExec(fmt.Sprintf(`UPDATE Kid SET val = 'u%d' WHERE id = %d`, rng.Intn(3), id))
		}
	}
	return db
}

func rowsString(r *Rows) string {
	var b strings.Builder
	for _, row := range r.Data {
		for _, v := range row {
			b.WriteString(FormatValue(v))
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// equivalenceQueries are the ORDER BY and range shapes the paper's workloads
// generate: document-order streams, position windows, DESC keys, multi-key
// orderings, and BETWEEN. keys lists each ORDER BY key as an output column
// position (negative = descending on position ~k-1): SQL guarantees the key
// sequence and the row multiset, not the order within key ties — tie order
// legitimately differs between a B+tree walk (rowid order) and a probe of a
// swap-compacted hash bucket, with or without ordered indexes.
var equivalenceQueries = []struct {
	sql  string
	keys []int // 1-based output position, negative for DESC
}{
	{`SELECT id, parentId, pos FROM Kid ORDER BY id`, []int{1}},
	{`SELECT id, parentId, pos FROM Kid ORDER BY id DESC`, []int{-1}},
	{`SELECT parentId, id, pos, val FROM Kid ORDER BY parentId, id`, []int{1, 2}},
	{`SELECT parentId, pos, id FROM Kid ORDER BY parentId DESC, pos DESC`, []int{-1, -2}},
	{`SELECT pos, id FROM Kid WHERE parentId = 3 AND pos >= 2 ORDER BY pos`, []int{1}},
	{`SELECT id, pos FROM Kid WHERE parentId = 5 AND pos BETWEEN 1 AND 3 ORDER BY pos, id`, []int{2, 1}},
	{`SELECT id FROM Kid WHERE id > 1004 AND id <= 1030 ORDER BY id`, []int{1}},
	{`SELECT val, id FROM Kid ORDER BY val, id`, []int{1, 2}},
	{`SELECT P.id, K.id FROM Par P, Kid K WHERE K.parentId = P.id ORDER BY 1, 2`, []int{1, 2}},
	{`SELECT P.id, K.pos, K.id FROM Par P, Kid K WHERE K.parentId = P.id AND K.pos < 3 ORDER BY 1, 3`, []int{1, 3}},
	{`SELECT id FROM Kid WHERE pos >= 1 AND pos < 4`, nil},
	{`SELECT DISTINCT parentId FROM Kid ORDER BY parentId`, []int{1}},
}

// assertKeyOrder fails if consecutive rows violate the key sequence.
func assertKeyOrder(t *testing.T, label, sql string, rows *Rows, keys []int) {
	t.Helper()
	specs := make([]sortSpec, len(keys))
	for i, k := range keys {
		if k < 0 {
			specs[i] = sortSpec{col: -k - 1, desc: true}
		} else {
			specs[i] = sortSpec{col: k - 1}
		}
	}
	for i := 1; i < len(rows.Data); i++ {
		if compareRows(rows.Data[i-1], rows.Data[i], specs) > 0 {
			t.Errorf("%s: %q: rows %d/%d out of order: %v then %v", label, sql, i-1, i, rows.Data[i-1], rows.Data[i])
			return
		}
	}
}

func TestOrderedUnorderedEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 5, 11, 23} {
		withIdx := buildRandomDoc(t, seed, true)
		without := buildRandomDoc(t, seed, false)
		for _, q := range equivalenceQueries {
			a, err := withIdx.Query(q.sql)
			if err != nil {
				t.Fatalf("seed %d ordered: %q: %v", seed, q.sql, err)
			}
			b, err := without.Query(q.sql)
			if err != nil {
				t.Fatalf("seed %d plain: %q: %v", seed, q.sql, err)
			}
			// Same multiset of rows…
			al := strings.Split(rowsString(a), "\n")
			bl := strings.Split(rowsString(b), "\n")
			sort.Strings(al)
			sort.Strings(bl)
			if strings.Join(al, "\n") != strings.Join(bl, "\n") {
				t.Errorf("seed %d: %q row multisets diverge\nordered:\n%s\nplain:\n%s",
					seed, q.sql, rowsString(a), rowsString(b))
				continue
			}
			// …and both sequences honour the ORDER BY keys.
			assertKeyOrder(t, fmt.Sprintf("seed %d ordered", seed), q.sql, a, q.keys)
			assertKeyOrder(t, fmt.Sprintf("seed %d plain", seed), q.sql, b, q.keys)
		}
	}
}

// TestDropIndexAblation checks the ablation path directly: after DropIndex,
// the same statements plan as scans plus a sort, still returning the same
// sequence the elided pipeline produced.
func TestDropIndexAblation(t *testing.T) {
	db := buildRandomDoc(t, 7, true)
	q := `SELECT id, pos FROM Kid WHERE parentId = 4 AND pos >= 1 ORDER BY pos, id`
	before, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.RangeProbes == 0 {
		t.Errorf("expected a range probe before ablation, stats %+v", st)
	}
	kid := db.table("Kid")
	if !kid.DropIndex("parentId") {
		t.Fatal("DropIndex(parentId) dropped nothing")
	}
	if got := len(kid.OrderedIndexes()); got != 1 {
		t.Fatalf("ordered indexes after drop = %d, want 1 (id)", got)
	}
	db.ResetStats()
	after, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rowsString(before) != rowsString(after) {
		t.Errorf("ablated run diverges:\n%s\nvs\n%s", rowsString(before), rowsString(after))
	}
	st = db.Stats()
	if st.SortPasses == 0 {
		t.Errorf("ablated run should sort, stats %+v", st)
	}
}

// probeStats runs a parentId point query and returns the Stats it moved
// and the number of rows it found.
func probeStats(t *testing.T, s Session, db *DB, table string) (Stats, int) {
	t.Helper()
	before := db.Stats()
	rows, err := s.Query("SELECT id FROM "+table+" WHERE parentId = ?", Int(10))
	if err != nil {
		t.Fatal(err)
	}
	return statsSub(db.Stats(), before), len(rows.Data)
}

// TestDropIndexRolledBack: DROP INDEX takes effect inside its transaction,
// and a rollback puts the index back — rebuilt from the rows as they stand,
// so a row another writer inserted while it was dropped is found by the
// probe too.
func TestDropIndexRolledBack(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	if st, n := probeStats(t, db, db, "OrderLine"); st.IndexProbes != 1 || st.FullScans != 0 || n != 2 {
		t.Fatalf("before the drop: stats %+v and %d rows, want one probe finding 2", st, n)
	}
	tx := db.Begin()
	if _, err := tx.Exec("DROP INDEX OrderLine (parentId)"); err != nil {
		t.Fatal(err)
	}
	if st, _ := probeStats(t, tx, db, "OrderLine"); st.IndexProbes != 0 || st.FullScans != 1 {
		t.Errorf("inside the dropping transaction: stats %+v, want a full scan", st)
	}
	db.MustExec("INSERT INTO OrderLine VALUES (104, 10, 'bolt', 9)")
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if st, n := probeStats(t, db, db, "OrderLine"); st.IndexProbes != 1 || st.FullScans != 0 || n != 3 {
		t.Errorf("after the rollback: stats %+v and %d rows, want one probe finding 3", st, n)
	}
	if _, err := db.Exec("DROP INDEX OrderLine (Qty)"); err == nil {
		t.Error("dropping an index that does not exist should fail")
	}
}

// TestDropIndexSurvivesReopen: a committed DROP INDEX is logged like CREATE
// INDEX, so the index stays dropped across a log replay and across a
// checkpoint's schema history.
func TestDropIndexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, noAutoCkpt())
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER)")
	db.MustExec("INSERT INTO item VALUES (1, 10), (2, 10), (3, 20)")
	db.MustExec("DROP INDEX item (parentId)")
	db.Close()
	for _, ckpt := range []bool{false, true} {
		db = mustOpenDB(t, dir, noAutoCkpt())
		if st, _ := probeStats(t, db, db, "item"); st.IndexProbes != 0 || st.FullScans != 1 {
			t.Errorf("reopened (checkpointed=%v): stats %+v, want a full scan", ckpt, st)
		}
		if !ckpt {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		db.Close()
	}
}

// TestDuplicateOuterKeyNoElision: when the outer ORDER BY column has
// duplicate values, equal-key outer rows each restart the inner order, so
// the join stream does NOT satisfy (x, y) and the sort must run. (Only a
// unique outer key — like the document ids the Sorted Outer Union sorts
// on — lets deeper keys continue the order.)
func TestDuplicateOuterKeyNoElision(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE a (rowkey INTEGER, x INTEGER)`)
	db.MustExec(`CREATE TABLE b (parentId INTEGER, y INTEGER)`)
	db.MustExec(`CREATE ORDERED INDEX oax ON a (x)`)
	db.MustExec(`CREATE ORDERED INDEX oby ON b (parentId, y)`)
	db.MustExec(`INSERT INTO a VALUES (1, 5), (2, 5)`)
	db.MustExec(`INSERT INTO b VALUES (1, 3), (1, 7), (2, 1), (2, 9)`)
	rows, err := db.Query(`SELECT a.x, b.y FROM a, b WHERE b.parentId = a.rowkey ORDER BY x, y`)
	if err != nil {
		t.Fatal(err)
	}
	want := "5,1;5,3;5,7;5,9;"
	var got strings.Builder
	for _, r := range rows.Data {
		fmt.Fprintf(&got, "%v,%v;", r[0], r[1])
	}
	if got.String() != want {
		t.Errorf("duplicate-outer-key join misordered: got %s want %s", got.String(), want)
	}
	if st := db.Stats(); st.SortPasses == 0 {
		t.Errorf("sort should NOT be elided over a non-unique outer key, stats %+v", st)
	}
}

// TestCTEPartialOrderNoUniquePin: a CTE materialized by an ordered scan of
// (parentId, id) under ORDER BY parentId records only [parentId] — a
// non-unique prefix. The trailing unique id ordered rows *within* duplicate
// parentId groups; it must not mark the recorded order unique, or a
// consumer joining over the CTE would keep satisfying deeper keys and elide
// a required sort.
func TestCTEPartialOrderNoUniquePin(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER, parentId INTEGER)`)
	db.MustExec(`CREATE TABLE u (k INTEGER)`)
	db.MustExec(`CREATE ORDERED INDEX otp ON t (parentId, id)`)
	db.MustExec(`CREATE ORDERED INDEX ouk ON u (k)`)
	db.MustExec(`INSERT INTO t VALUES (10, 1), (11, 1)`)
	db.MustExec(`INSERT INTO u VALUES (1), (2)`)
	rows, err := db.Query(`WITH c AS (SELECT parentId, id FROM t ORDER BY parentId) ` +
		`SELECT c.parentId, c.id, u.k FROM c, u ORDER BY 1, 3`)
	if err != nil {
		t.Fatal(err)
	}
	var ks []string
	for _, r := range rows.Data {
		ks = append(ks, FormatValue(r[2]))
	}
	if got := strings.Join(ks, ","); got != "1,1,2,2" {
		t.Errorf("ORDER BY parentId, k violated: k sequence %s, want 1,1,2,2", got)
	}
	if st := db.Stats(); st.SortPasses == 0 {
		t.Errorf("sort must run over a CTE whose recorded order is a non-unique prefix, stats %+v", st)
	}
}

// TestCTEFullUniqueOrderStillElides guards the flip side: when the CTE's
// recorded order ends in the unique id and the consumer consumes it in
// full, the pin holds and no sort runs anywhere in the chain.
func TestCTEFullUniqueOrderStillElides(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER, parentId INTEGER)`)
	db.MustExec(`CREATE TABLE u (k INTEGER)`)
	db.MustExec(`CREATE ORDERED INDEX otp ON t (parentId, id)`)
	db.MustExec(`CREATE ORDERED INDEX ouk ON u (k)`)
	db.MustExec(`INSERT INTO t VALUES (11, 1), (10, 1)`)
	db.MustExec(`INSERT INTO u VALUES (2), (1)`)
	rows, err := db.Query(`WITH c AS (SELECT parentId, id FROM t ORDER BY parentId, id) ` +
		`SELECT c.parentId, c.id, u.k FROM c, u ORDER BY 1, 2, 3`)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, r := range rows.Data {
		fmt.Fprintf(&got, "%v,%v,%v;", r[0], r[1], r[2])
	}
	if want := "1,10,1;1,10,2;1,11,1;1,11,2;"; got.String() != want {
		t.Errorf("elided join misordered: got %s want %s", got.String(), want)
	}
	if st := db.Stats(); st.SortPasses != 0 {
		t.Errorf("fully consumed unique order should elide every sort, stats %+v", st)
	}
}

// TestMatchRowsRangePathAscendingRowids pins matchRows' contract for DML:
// rowids come back ascending regardless of access path, so UPDATE/DELETE
// application and trigger firing order do not vary when a B+tree window
// replaces the hash probe. Rows are inserted with descending pos, making
// index-key order the reverse of rowid order.
func TestMatchRowsRangePathAscendingRowids(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE T (id INTEGER, pos INTEGER)`)
	db.MustExec(`CREATE ORDERED INDEX opos ON T (pos)`)
	for i := 0; i < 8; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO T VALUES (%d, %d)`, i+1, 80-10*i))
	}
	stmt, err := ParseSQL(`DELETE FROM T WHERE pos >= 15`)
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*DeleteStmt)
	rids, err := db.matchRows(&del.plan, db.table("T"), "T", del.Where, newEnv(nil))
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().RangeProbes == 0 {
		t.Fatalf("expected the B+tree range path, stats %+v", db.Stats())
	}
	if !sort.IntsAreSorted(rids) {
		t.Errorf("matchRows returned unsorted rowids %v", rids)
	}
	if len(rids) != 7 {
		t.Errorf("matchRows matched %d rows, want 7", len(rids))
	}
}

// TestUniqueEnforcedAfterDropIndex: DropIndex("id") is supported for
// ablation, but order planning keeps treating id as unique (single-row
// pins, sort elision), so the duplicate check must survive the drop —
// first on the ordered index, then with neither index via heap scan.
func TestUniqueEnforcedAfterDropIndex(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE T (id INTEGER, parentId INTEGER)`)
	db.MustExec(`CREATE ORDERED INDEX oid ON T (id)`)
	db.MustExec(`INSERT INTO T VALUES (1, NULL), (2, 1)`)
	tab := db.table("T")
	if !tab.DropIndex("id") {
		t.Fatal("DropIndex(id) dropped the hash index only; ordered (id) should go too")
	}
	// The ordered (id) index was dropped alongside the hash index, so this
	// exercises the heap-scan fallback.
	if _, err := db.Exec(`INSERT INTO T VALUES (2, 1)`); err == nil {
		t.Error("duplicate id insert succeeded after DropIndex(id)")
	}
	if _, err := db.Exec(`UPDATE T SET id = 1 WHERE id = 2`); err == nil {
		t.Error("duplicate id update succeeded after DropIndex(id)")
	}
	// Ordered-index fallback: a fresh ordered index, still no hash index.
	db.MustExec(`CREATE ORDERED INDEX oid2 ON T (id)`)
	if _, err := db.Exec(`INSERT INTO T VALUES (2, 1)`); err == nil {
		t.Error("duplicate id insert succeeded with ordered-index-only enforcement")
	}
	if _, err := db.Exec(`INSERT INTO T VALUES (3, 1)`); err != nil {
		t.Errorf("fresh id rejected: %v", err)
	}
}

// TestCTEInnerLevelHashJoin: a CTE at an inner join level with a correlated
// equality and no useful recorded order must use the transient hash join
// (one build, bucket probes), not replay the materialized rows once per
// outer row — the PR 1 path, which the order-aware refactor briefly lost.
func TestCTEInnerLevelHashJoin(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER, parentId INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (1, NULL), (2, 1), (3, 1)`)
	q := `WITH c AS (SELECT id, parentId FROM t) SELECT a.id, c.id FROM t a, c WHERE c.parentId = a.id`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "HashJoin c") {
		t.Errorf("CTE inner level should hash-join, plan:\n%s", plan)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.HashJoinBuilds == 0 {
		t.Errorf("expected a transient hash build, stats %+v", st)
	}
}

// TestCTEPartialOrderContinuationHashJoins: when a CTE's recorded order
// matches only part of the wanted keys at its level (here [parentId, id]
// against wanted [parentId, pos]), elision dies in the satisfaction walk —
// so the planner must not keep the per-outer-row replay scan for its
// order, or the query pays both the replay and the sort. The correlated
// equality takes the transient hash join instead.
func TestCTEPartialOrderContinuationHashJoins(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE o (id INTEGER)`)
	db.MustExec(`CREATE TABLE t (id INTEGER, parentId INTEGER, pos INTEGER)`)
	db.MustExec(`CREATE ORDERED INDEX ooid ON o (id)`)
	db.MustExec(`INSERT INTO o VALUES (1), (2)`)
	db.MustExec(`INSERT INTO t VALUES (10, 1, 5), (11, 1, 4), (12, 2, 3)`)
	q := `WITH c AS (SELECT id, parentId, pos FROM t ORDER BY parentId, id) ` +
		`SELECT o.id, c.parentId, c.pos FROM o, c WHERE c.parentId = o.id ORDER BY 1, 2, 3`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "HashJoin c") {
		t.Errorf("partially continuing CTE order should hash-join, plan:\n%s", plan)
	}
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, r := range rows.Data {
		fmt.Fprintf(&got, "%v,%v,%v;", r[0], r[1], r[2])
	}
	if want := "1,1,4;1,1,5;2,2,3;"; got.String() != want {
		t.Errorf("join misordered: got %s want %s", got.String(), want)
	}
	if st := db.Stats(); st.SortPasses == 0 || st.HashJoinBuilds == 0 {
		t.Errorf("expected a sort and a hash build, stats %+v", st)
	}
}

// TestBTreeRandomOps drives the B+tree against a reference map through
// random inserts, removals, and range scans: once from an empty tree, and
// once from a tree bulk-built by newBTreeFromSorted over a random sorted
// prefix, whose leaves slice one array — removals then inserts into one
// leaf must never write into its neighbour's entries.
func TestBTreeRandomOps(t *testing.T) {
	for _, prefix := range []int{0, 700} {
		t.Run(fmt.Sprintf("prefix=%d", prefix), func(t *testing.T) {
			testBTreeRandomOps(t, prefix)
		})
	}
}

func testBTreeRandomOps(t *testing.T, prefix int) {
	rng := rand.New(rand.NewSource(99))
	ref := make(map[int]int64) // rid -> key value
	rid := 0
	var sorted []bkey
	for ; rid < prefix; rid++ {
		v := int64(rng.Intn(200))
		sorted = append(sorted, bkey{vals: [btreeMaxCols]Value{Int(v)}, rid: rid})
		ref[rid] = v
	}
	slices.SortFunc(sorted, compareBKeys)
	tree := newBTree()
	if prefix > 0 {
		tree = newBTreeFromSorted(sorted)
	}
	for step := 0; step < 5000; step++ {
		if rng.Intn(3) > 0 || len(ref) == 0 {
			v := int64(rng.Intn(200))
			tree.insert(bkey{vals: [btreeMaxCols]Value{Int(v)}, rid: rid})
			ref[rid] = v
			rid++
		} else {
			// Remove a random live entry.
			for r, v := range ref {
				if !tree.remove(bkey{vals: [btreeMaxCols]Value{Int(v)}, rid: r}) {
					t.Fatalf("step %d: remove (%d,%d) failed", step, v, r)
				}
				delete(ref, r)
				break
			}
		}
	}
	// Full ascending walk must match the sorted reference.
	type ent struct {
		v   int64
		rid int
	}
	var want []ent
	for r, v := range ref {
		want = append(want, ent{v, r})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].v != want[j].v {
			return want[i].v < want[j].v
		}
		return want[i].rid < want[j].rid
	})
	i := 0
	for c := tree.min(); ; c.advance() {
		k, ok := c.entry()
		if !ok {
			break
		}
		if i >= len(want) || k.vals[0].MustInt() != want[i].v || k.rid != want[i].rid {
			t.Fatalf("walk[%d] = (%v,%d), want (%d,%d)", i, k.vals[0], k.rid, want[i].v, want[i].rid)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("walk visited %d entries, want %d", i, len(want))
	}
	if tree.size != len(want) {
		t.Fatalf("tree.size = %d, want %d", tree.size, len(want))
	}
	// Descending walk reverses it.
	i = len(want)
	for c := tree.max(); ; c.advance() {
		k, ok := c.entry()
		if !ok {
			break
		}
		i--
		if k.rid != want[i].rid {
			t.Fatalf("desc walk mismatch at %d", i)
		}
	}
	if i != 0 {
		t.Fatalf("desc walk stopped at %d", i)
	}
}

// BenchmarkSOUReconstructionOrdered measures a document-scale Sorted Outer
// Union stream with ordered indexes (merged branches, no sort) against the
// ablated hash-probe-plus-sort pipeline.
func BenchmarkSOUReconstruction(b *testing.B) {
	setup := func(b *testing.B, ordered bool) (*DB, string) {
		db := NewDB()
		db.MustExec(`CREATE TABLE P (id INTEGER, parentId INTEGER, name VARCHAR(20))`)
		db.MustExec(`CREATE TABLE C (id INTEGER, parentId INTEGER, d VARCHAR(20))`)
		if ordered {
			// The shred-declared shape: (id) B+tree for the base branch;
			// child branches sort parentId hash buckets (SortedProbe).
			db.MustExec(`CREATE ORDERED INDEX op ON P (id)`)
		}
		id := 1
		for i := 0; i < 500; i++ {
			pid := id
			id++
			db.MustExec(fmt.Sprintf(`INSERT INTO P VALUES (%d, NULL, 'p')`, pid))
			for j := 0; j < 8; j++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO C VALUES (%d, %d, 'c')`, id, pid))
				id++
			}
		}
		sql := `WITH Q1(C1, C2, C3, C4) AS (SELECT T.id, T.name, NULL, NULL FROM P T), ` +
			`Q2(C1, C2, C3, C4) AS (SELECT Q1.C1, NULL, T.id, T.d FROM Q1, C T WHERE T.parentId = Q1.C1) ` +
			`(SELECT * FROM Q1) UNION ALL (SELECT * FROM Q2) ORDER BY C1, C3`
		return db, sql
	}
	for _, ordered := range []bool{true, false} {
		b.Run(fmt.Sprintf("ordered=%v", ordered), func(b *testing.B) {
			db, sql := setup(b, ordered)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
