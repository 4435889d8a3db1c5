package asr

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/testdocs"
	"repro/internal/xmltree"
)

func loadCust(t testing.TB) (*relational.DB, *shred.Mapping, *ASR) {
	t.Helper()
	dtd := xmltree.MustParseDTD(testdocs.CustDTD)
	m, err := shred.BuildMapping(dtd, "CustDB", shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDB()
	if _, err := shred.Load(db, m, testdocs.Cust()); err != nil {
		t.Fatal(err)
	}
	a, err := Build(db, m)
	if err != nil {
		t.Fatal(err)
	}
	return db, m, a
}

func TestBuildLevels(t *testing.T) {
	_, _, a := loadCust(t)
	if a.depth != 4 {
		t.Errorf("depth = %d, want 4", a.depth)
	}
	for elem, want := range map[string]int{"CustDB": 0, "Customer": 1, "Order": 2, "OrderLine": 3} {
		if a.levelOf[elem] != want {
			t.Errorf("level %s = %d, want %d", elem, a.levelOf[elem], want)
		}
	}
}

func TestLeftCompletePaths(t *testing.T) {
	db, _, _ := loadCust(t)
	// Paths: 4 order lines (full depth) + customer 3 with no orders
	// (truncated) = 5 paths.
	if got := db.RowCount("ASR"); got != 5 {
		t.Fatalf("ASR rows = %d, want 5", got)
	}
	// The truncated path has NULLs only at the bottom.
	rows, err := db.Query(`SELECT c0, c1, c2, c3 FROM ASR WHERE c2 IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 {
		t.Fatalf("truncated paths = %d, want 1", len(rows.Data))
	}
	r := rows.Data[0]
	if r[0].IsNull() || r[1].IsNull() || !r[2].IsNull() || !r[3].IsNull() {
		t.Errorf("left-completeness violated: %v", r)
	}
}

func TestSharedMappingRejected(t *testing.T) {
	dtd := xmltree.MustParseDTD(testdocs.BioDTD)
	m, err := shred.BuildMapping(dtd, "db", shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDB()
	if _, err := shred.Load(db, m, testdocs.Bio()); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(db, m); err == nil {
		t.Error("bio mapping shares lab across depths; ASR build should fail")
	}
}

// markedIDs runs the Marked subquery for elem.
func markedIDs(t *testing.T, db *relational.DB, a *ASR, elem string) []relational.Value {
	t.Helper()
	rows, err := db.Query(a.Marked(elem))
	if err != nil {
		t.Fatal(err)
	}
	var out []relational.Value
	for _, r := range rows.Data {
		out = append(out, r[0])
	}
	return out
}

func TestMarkAndMarkedIDs(t *testing.T) {
	db, _, a := loadCust(t)
	// Mark the Seattle John (customer id 2 — ids assigned in document
	// order: 1 CustDB, 2 Customer John, 3/6 orders…). Find it by query.
	rows, err := db.Query(`SELECT id FROM Customer WHERE Address_City_v = 'Seattle'`)
	if err != nil {
		t.Fatal(err)
	}
	johnID := rows.Data[0][0].MustInt()
	if err := a.MarkSubtrees(db, "Customer", []int64{johnID}); err != nil {
		t.Fatal(err)
	}
	if ids := markedIDs(t, db, a, "Order"); len(ids) != 2 {
		t.Errorf("marked orders = %d, want 2", len(ids))
	}
	if ids := markedIDs(t, db, a, "OrderLine"); len(ids) != 3 {
		t.Errorf("marked lines = %d, want 3", len(ids))
	}
	lo, hi, ok, err := a.MarkedRange(db, "Customer")
	if err != nil || !ok || lo != johnID || hi <= lo {
		t.Errorf("marked range = %d..%d (ok %v, err %v), want %d.. above it", lo, hi, ok, err, johnID)
	}
	if err := a.Unmark(db); err != nil {
		t.Fatal(err)
	}
	if ids := markedIDs(t, db, a, "Customer"); len(ids) != 0 {
		t.Errorf("marks survive Unmark: %v", ids)
	}
	if _, _, ok, _ := a.MarkedRange(db, "Customer"); ok {
		t.Error("marked range found after Unmark")
	}
}

func TestDeleteMarkedRepairsLeftCompleteness(t *testing.T) {
	db, _, a := loadCust(t)
	rows, err := db.Query(`SELECT id FROM Customer WHERE Address_City_v = 'Seattle'`)
	if err != nil {
		t.Fatal(err)
	}
	johnID := rows.Data[0][0].MustInt()
	if err := a.MarkSubtrees(db, "Customer", []int64{johnID}); err != nil {
		t.Fatal(err)
	}
	if err := a.DeleteMarked(db, "Customer"); err != nil {
		t.Fatal(err)
	}
	// Seattle John's 3 line-paths are gone; Mary's path and Sacramento
	// John's truncated path remain; CustDB must NOT have lost its presence
	// (it still has children, so no repair row needed for it).
	asrRows := db.RowCount("ASR")
	if asrRows != 2 {
		t.Errorf("ASR rows after delete = %d, want 2", asrRows)
	}
	// Now delete Mary too: her parent (CustDB) keeps Sacramento John.
	rows, _ = db.Query(`SELECT id FROM Customer WHERE Name_v = 'Mary'`)
	maryID := rows.Data[0][0].MustInt()
	if err := a.MarkSubtrees(db, "Customer", []int64{maryID}); err != nil {
		t.Fatal(err)
	}
	if err := a.DeleteMarked(db, "Customer"); err != nil {
		t.Fatal(err)
	}
	if got := db.RowCount("ASR"); got != 1 {
		t.Errorf("ASR rows = %d, want 1", got)
	}
	// Delete the last customer: the root becomes a leaf and must be
	// re-inserted as a truncated path (left-completeness repair).
	rows, _ = db.Query(`SELECT id FROM Customer WHERE Address_State_v = 'CA'`)
	caID := rows.Data[0][0].MustInt()
	if err := a.MarkSubtrees(db, "Customer", []int64{caID}); err != nil {
		t.Fatal(err)
	}
	if err := a.DeleteMarked(db, "Customer"); err != nil {
		t.Fatal(err)
	}
	rows, err = db.Query(`SELECT c0, c1 FROM ASR`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].IsNull() || !rows.Data[0][1].IsNull() {
		t.Errorf("root repair row wrong: %v", rows.Data)
	}
}

// TestInsertPaths: the walk writer turns new tuples under a destination
// into their left-complete paths, prefixed by the destination's chain: a
// new order with one line is one full path, a new order without lines one
// truncated path.
func TestInsertPaths(t *testing.T) {
	db, _, a := loadCust(t)
	rows, err := db.Query(`SELECT id FROM Customer WHERE Name_v = 'Mary'`)
	if err != nil {
		t.Fatal(err)
	}
	maryID := rows.Data[0][0].MustInt()
	before := db.RowCount("ASR")
	err = a.InsertTuples(db, "Order", maryID, []Tuple{
		{Elem: "Order", ID: 900, Parent: maryID},
		{Elem: "OrderLine", ID: 901, Parent: 900},
		{Elem: "Order", ID: 902, Parent: maryID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.RowCount("ASR"); got != before+2 {
		t.Errorf("ASR rows = %d, want %d", got, before+2)
	}
	got, err := db.Query(`SELECT c0, c1, c2, c3, mark FROM ASR WHERE c2 >= 900`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprint([]relational.Value{relational.Int(1), relational.Int(maryID), relational.Int(900), relational.Int(901), relational.Int(0)}),
		fmt.Sprint([]relational.Value{relational.Int(1), relational.Int(maryID), relational.Int(902), relational.Null, relational.Int(0)}),
	}
	if g := multiset(got); !slices.Equal(g, want) {
		t.Errorf("new paths = %v, want %v", g, want)
	}
}

// TestPathQueryAcceleration checks the §5.3 two-join form returns the same
// answer as the conventional multiway join.
func TestPathQueryAcceleration(t *testing.T) {
	db, _, a := loadCust(t)
	sql, err := a.PathQuerySQL("Customer", "OrderLine", "S.Name_v", "L.ItemName_v = 'tire'")
	if err != nil {
		t.Fatal(err)
	}
	asrRows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	conventional, err := db.Query(`
SELECT C.Name_v FROM Customer C, Order_t O, OrderLine OL
WHERE OL.ItemName_v = 'tire' AND OL.parentId = O.id AND O.parentId = C.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(asrRows.Data) != len(conventional.Data) {
		t.Fatalf("ASR path query returned %d rows, conventional %d", len(asrRows.Data), len(conventional.Data))
	}
	for i := range asrRows.Data {
		if asrRows.Data[i][0] != relational.Text("John") {
			t.Errorf("row %d = %v", i, asrRows.Data[i])
		}
	}
}

// loadFixed loads the §7.2 document (scaling factor 20, depth 5, seed 9) at
// the given fanout and builds its ASR.
func loadFixed(t testing.TB, fanout int) (*relational.DB, *shred.Mapping, *ASR) {
	t.Helper()
	doc := datagen.Fixed(datagen.FixedParams{ScalingFactor: 20, Depth: 5, Fanout: fanout, Seed: 9})
	m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDB()
	if _, err := shred.Load(db, m, doc); err != nil {
		t.Fatal(err)
	}
	a, err := Build(db, m)
	if err != nil {
		t.Fatal(err)
	}
	return db, m, a
}

// pathQueries returns the conventional multiway join e1→…→e{plen} and the
// ASR form of the same §7.2 path query. The leaf condition selects the
// middle leaf tuple's k value, so the query matches rows.
func pathQueries(t *testing.T, db *relational.DB, m *shred.Mapping, a *ASR, plen int) (conventional, viaASR string) {
	t.Helper()
	leaf := fmt.Sprintf("e%d", plen)
	probe, err := db.Query(fmt.Sprintf("SELECT k%d_v FROM %s", plen, m.Table(leaf).Name))
	if err != nil {
		t.Fatal(err)
	}
	val := relational.FormatValue(probe.Data[len(probe.Data)/2][0])
	from := []string{m.Table("e1").Name + " E1"}
	conds := []string{fmt.Sprintf("E%d.k%d_v = %s", plen, plen, val)}
	for i := 2; i <= plen; i++ {
		from = append(from, fmt.Sprintf("%s E%d", m.Table(fmt.Sprintf("e%d", i)).Name, i))
		conds = append(conds, fmt.Sprintf("E%d.parentId = E%d.id", i, i-1))
	}
	conventional = fmt.Sprintf("SELECT E1.s1_v FROM %s WHERE %s", strings.Join(from, ", "), strings.Join(conds, " AND "))
	viaASR, err = a.PathQuerySQL("e1", leaf, "S.s1_v", fmt.Sprintf("L.k%d_v = %s", plen, val))
	if err != nil {
		t.Fatal(err)
	}
	return conventional, viaASR
}

// multiset renders a result as its sorted rows, so two results compare
// equal exactly when they hold the same rows the same number of times.
func multiset(rows *relational.Rows) []string {
	out := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestPathQueryMatchesConventionalJoin: the ASR has one row per complete
// path through an element, so a leaf above the deepest level sits on many
// ASR rows. The §5.3 query must still answer each leaf tuple once — the
// conventional join's multiset — at every level of a fanout-4 document.
func TestPathQueryMatchesConventionalJoin(t *testing.T) {
	db, m, a := loadFixed(t, 4)
	for plen := 1; plen <= a.depth-1; plen++ {
		conventional, viaASR := pathQueries(t, db, m, a, plen)
		want, err := db.Query(conventional)
		if err != nil {
			t.Fatalf("%s: %v", conventional, err)
		}
		got, err := db.Query(viaASR)
		if err != nil {
			t.Fatalf("%s: %v", viaASR, err)
		}
		if len(want.Data) == 0 {
			t.Fatalf("path length %d: conventional join selects nothing", plen)
		}
		if w, g := multiset(want), multiset(got); !slices.Equal(w, g) {
			t.Errorf("path length %d: ASR query returned %d rows, conventional join %d", plen, len(g), len(w))
		}
	}
}

// TestASRPathRuns is the §7.2 study in counts. The ASR holds one row per
// root-to-leaf path, sf·f^(d−1), which is why it grows with fanout (the
// effect behind the paper's fanout-4 slowdown). Both query forms are run
// at path lengths 3 and 4 and their rows scanned are logged; run with -v
// to print the series.
func TestASRPathRuns(t *testing.T) {
	const sf, depth = 20, 5
	for _, fanout := range []int{1, 4} {
		db, m, a := loadFixed(t, fanout)
		paths := sf
		for i := 1; i < depth; i++ {
			paths *= fanout
		}
		if got := db.RowCount(table); got != paths {
			t.Errorf("fanout %d: ASR rows = %d, want sf·f^(d−1) = %d", fanout, got, paths)
		}
		for _, plen := range []int{3, 4} {
			conventional, viaASR := pathQueries(t, db, m, a, plen)
			var scanned [2]int64
			var answers [2]int
			for i, sql := range []string{conventional, viaASR} {
				db.ResetStats()
				rows, err := db.Query(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				scanned[i], answers[i] = db.Stats().RowsScanned, len(rows.Data)
			}
			if answers[0] != answers[1] {
				t.Errorf("fanout %d, path length %d: ASR query answered %d rows, conventional %d",
					fanout, plen, answers[1], answers[0])
			}
			t.Logf("fanout=%d pathlen=%d asr_rows=%d conventional_scanned=%d asr_scanned=%d",
				fanout, plen, paths, scanned[0], scanned[1])
		}
	}
}
