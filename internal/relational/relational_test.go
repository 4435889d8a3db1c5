package relational

import (
	"strings"
	"testing"
	"testing/quick"
)

// custSchema creates the paper's customer tables (Shared Inlining of the
// Figure 4 DTD) with id/parentId linkage and indexes.
func custSchema(t testing.TB) *DB {
	db := NewDB()
	stmts := []string{
		`CREATE TABLE Customer (id INTEGER, parentId INTEGER, Name VARCHAR(50), Address_City VARCHAR(50), Address_State VARCHAR(50))`,
		`CREATE TABLE Orders (id INTEGER, parentId INTEGER, Date VARCHAR(20), Status VARCHAR(20))`,
		`CREATE TABLE OrderLine (id INTEGER, parentId INTEGER, ItemName VARCHAR(50), Qty INTEGER)`,
		`CREATE INDEX idx_cust_id ON Customer (id)`,
		`CREATE INDEX idx_ord_id ON Orders (id)`,
		`CREATE INDEX idx_ord_parent ON Orders (parentId)`,
		`CREATE INDEX idx_ol_parent ON OrderLine (parentId)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

func loadCustData(t testing.TB, db *DB) {
	stmts := []string{
		`INSERT INTO Customer VALUES (1, 0, 'John', 'Seattle', 'WA'), (2, 0, 'Mary', 'Portland', 'OR'), (3, 0, 'John', 'Sacramento', 'CA')`,
		`INSERT INTO Orders VALUES (10, 1, '2000-05-01', 'ready'), (11, 1, '2000-06-12', 'shipped'), (12, 2, '2000-07-04', 'ready')`,
		`INSERT INTO OrderLine VALUES (100, 10, 'tire', 4), (101, 10, 'wrench', 1), (102, 11, 'tire', 2), (103, 12, 'hammer', 1)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`SELECT Name, Address_City FROM Customer WHERE Name = 'John'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows.Data))
	}
	cities := map[string]bool{}
	for _, r := range rows.Data {
		cities[r[1].MustText()] = true
	}
	if !cities["Seattle"] || !cities["Sacramento"] {
		t.Errorf("cities = %v", cities)
	}
}

func TestDuplicateTableFails(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	if _, err := db.Exec(`CREATE TABLE t (a INTEGER)`); err == nil {
		t.Error("duplicate CREATE TABLE should fail")
	}
}

func TestTypeCoercion(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (n INTEGER, s VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES ('42', 7)`)
	rows, err := db.Query(`SELECT n, s FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != Int(42) || rows.Data[0][1] != Text("7") {
		t.Errorf("coercion = %v", rows.Data[0])
	}
	if _, err := db.Exec(`INSERT INTO t VALUES ('abc', 'x')`); err == nil {
		t.Error("non-numeric string into INTEGER should fail")
	}
}

func TestJoinWithIndex(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`
SELECT C.Name, OL.ItemName
FROM Customer C, Orders O, OrderLine OL
WHERE O.parentId = C.id AND OL.parentId = O.id AND OL.ItemName = 'tire'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows.Data))
	}
	for _, r := range rows.Data {
		if r[0] != Text("John") {
			t.Errorf("tire buyer = %v", r[0])
		}
	}
}

func TestDeleteWithWhere(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	n, err := db.Exec(`DELETE FROM Customer WHERE Name = 'John'`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("deleted %d, want 2", n)
	}
	if db.table("Customer").RowCount() != 1 {
		t.Errorf("rows left = %d", db.table("Customer").RowCount())
	}
}

func TestUpdateArithmetic(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	// The table-based insert's id remapping: id = id + offset.
	n, err := db.Exec(`UPDATE Orders SET id = id + 1000, parentId = parentId + 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("updated %d, want 3", n)
	}
	rows, _ := db.Query(`SELECT MIN(id), MAX(id) FROM Orders`)
	if rows.Data[0][0] != Int(1010) || rows.Data[0][1] != Int(1012) {
		t.Errorf("min/max = %v", rows.Data[0])
	}
}

func TestAggregates(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`SELECT COUNT(*), MIN(id), MAX(id), MAX(id) - MIN(id) + 1 FROM OrderLine`)
	if err != nil {
		t.Fatal(err)
	}
	r := rows.Data[0]
	if r[0] != Int(4) || r[1] != Int(100) || r[2] != Int(103) || r[3] != Int(4) {
		t.Errorf("aggregates = %v", r)
	}
	// Aggregates over an empty set.
	db.MustExec(`DELETE FROM OrderLine`)
	rows, err = db.Query(`SELECT COUNT(*), MIN(id) FROM OrderLine`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != Int(0) || !rows.Data[0][1].IsNull() {
		t.Errorf("empty aggregates = %v", rows.Data[0])
	}
}

func TestNotInSubquery(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	// Delete the parent, then orphan cleanup — the cascading delete shape.
	db.MustExec(`DELETE FROM Customer WHERE Name = 'John'`)
	n, err := db.Exec(`DELETE FROM Orders WHERE parentId NOT IN (SELECT id FROM Customer)`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("orphaned orders deleted = %d, want 2", n)
	}
	n, err = db.Exec(`DELETE FROM OrderLine WHERE parentId NOT IN (SELECT id FROM Orders)`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("orphaned lines deleted = %d, want 3", n)
	}
}

func TestInList(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`SELECT id FROM Orders WHERE id IN (10, 12)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Errorf("IN list matched %d", len(rows.Data))
	}
	rows, err = db.Query(`SELECT id FROM Orders WHERE id NOT IN (10, 12)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != Int(11) {
		t.Errorf("NOT IN = %v", rows.Data)
	}
}

func TestIsNull(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INTEGER, b VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'x'), (2, NULL)`)
	rows, _ := db.Query(`SELECT a FROM t WHERE b IS NULL`)
	if len(rows.Data) != 1 || rows.Data[0][0] != Int(2) {
		t.Errorf("IS NULL = %v", rows.Data)
	}
	rows, _ = db.Query(`SELECT a FROM t WHERE b IS NOT NULL`)
	if len(rows.Data) != 1 || rows.Data[0][0] != Int(1) {
		t.Errorf("IS NOT NULL = %v", rows.Data)
	}
	// NULL never equals anything.
	rows, _ = db.Query(`SELECT a FROM t WHERE b = NULL`)
	if len(rows.Data) != 0 {
		t.Errorf("= NULL matched %d rows", len(rows.Data))
	}
}

// TestOuterUnionShape runs the paper's Figure 5 query shape: WITH CTEs,
// UNION ALL, NULL padding, ORDER BY with NULLs sorting first so parents
// precede children.
func TestOuterUnionShape(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`
WITH Q1(C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
  SELECT id, Name, Address_City, Address_State, NULL, NULL, NULL, NULL, NULL
  FROM Customer
  WHERE Name = 'John'
), Q2(C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
  SELECT Q1.C1, NULL, NULL, NULL, O.id, O.Status, NULL, NULL, NULL
  FROM Q1, Orders O
  WHERE O.parentId = Q1.C1
), Q3(C1, C2, C3, C4, C5, C6, C7, C8, C9) AS (
  SELECT Q2.C1, NULL, NULL, NULL, Q2.C5, NULL, OL.id, OL.ItemName, OL.Qty
  FROM Q2, OrderLine OL
  WHERE OL.parentId = Q2.C5
) (
  SELECT * FROM Q1
) UNION ALL (
  SELECT * FROM Q2
) UNION ALL (
  SELECT * FROM Q3
)
ORDER BY C1, C5, C7`)
	if err != nil {
		t.Fatal(err)
	}
	// John(1): customer row, 2 orders, 3 lines; John(3): customer row only.
	if len(rows.Data) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows.Data))
	}
	// Parent-before-child: first row is customer 1 (C5 NULL), then its
	// orders and their lines, then customer 3.
	r0 := rows.Data[0]
	if r0[0] != Int(1) || !r0[4].IsNull() || r0[1] != Text("John") {
		t.Errorf("row 0 = %v", r0)
	}
	r1 := rows.Data[1]
	if r1[4] != Int(10) || !r1[6].IsNull() {
		t.Errorf("row 1 = %v (want order 10 header)", r1)
	}
	r2 := rows.Data[2]
	if r2[6] != Int(100) {
		t.Errorf("row 2 = %v (want line 100)", r2)
	}
	last := rows.Data[6]
	if last[0] != Int(3) || !last[4].IsNull() {
		t.Errorf("last row = %v (want customer 3)", last)
	}
}

func TestPerRowTriggerCascade(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	db.MustExec(`CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH ROW DELETE FROM Orders WHERE parentId = OLD.id`)
	db.MustExec(`CREATE TRIGGER ord_del AFTER DELETE ON Orders FOR EACH ROW DELETE FROM OrderLine WHERE parentId = OLD.id`)

	db.ResetStats()
	n, err := db.Exec(`DELETE FROM Customer WHERE Name = 'John'`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("deleted %d customers", n)
	}
	if got := db.table("Orders").RowCount(); got != 1 {
		t.Errorf("orders left = %d, want 1", got)
	}
	if got := db.table("OrderLine").RowCount(); got != 1 {
		t.Errorf("lines left = %d, want 1", got)
	}
	st := db.Stats()
	if st.Statements != 1 {
		t.Errorf("client statements = %d, want 1 (cascade is inside the DBMS)", st.Statements)
	}
	if st.TriggerFirings < 3 { // 2 customer rows + 2 orders (one per row)
		t.Errorf("trigger firings = %d", st.TriggerFirings)
	}
	if st.RowsDeleted != 7 { // 2 customers + 2 orders + 3 lines
		t.Errorf("rows deleted = %d, want 7", st.RowsDeleted)
	}
}

func TestPerStatementTriggerCascade(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	db.MustExec(`CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH STATEMENT DELETE FROM Orders WHERE parentId NOT IN (SELECT id FROM Customer)`)
	db.MustExec(`CREATE TRIGGER ord_del AFTER DELETE ON Orders FOR EACH STATEMENT DELETE FROM OrderLine WHERE parentId NOT IN (SELECT id FROM Orders)`)

	n, err := db.Exec(`DELETE FROM Customer WHERE Name = 'John'`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("deleted %d customers", n)
	}
	if got := db.table("Orders").RowCount(); got != 1 {
		t.Errorf("orders left = %d, want 1", got)
	}
	if got := db.table("OrderLine").RowCount(); got != 1 {
		t.Errorf("lines left = %d, want 1", got)
	}
}

func TestPerStatementTriggerNotFiredOnZeroRows(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	db.MustExec(`CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH STATEMENT DELETE FROM Orders WHERE parentId NOT IN (SELECT id FROM Customer)`)
	db.ResetStats()
	db.MustExec(`DELETE FROM Customer WHERE Name = 'Nobody'`)
	if st := db.Stats(); st.TriggerFirings != 0 {
		t.Errorf("trigger fired %d times on empty delete", st.TriggerFirings)
	}
}

func TestRecursiveSchemaTriggerTerminates(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE Node (id INTEGER, parentId INTEGER)`)
	db.MustExec(`CREATE INDEX idx_node_parent ON Node (parentId)`)
	db.MustExec(`CREATE TRIGGER node_del AFTER DELETE ON Node FOR EACH ROW DELETE FROM Node WHERE parentId = OLD.id`)
	// Chain 1 → 2 → 3 → 4.
	db.MustExec(`INSERT INTO Node VALUES (1, 0), (2, 1), (3, 2), (4, 3)`)
	n, err := db.Exec(`DELETE FROM Node WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("client delete = %d", n)
	}
	if db.table("Node").RowCount() != 0 {
		t.Errorf("recursive cascade left %d rows", db.table("Node").RowCount())
	}
}

func TestDropTrigger(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	db.MustExec(`CREATE TRIGGER cust_del AFTER DELETE ON Customer FOR EACH ROW DELETE FROM Orders WHERE parentId = OLD.id`)
	db.MustExec(`DROP TRIGGER cust_del`)
	db.MustExec(`DELETE FROM Customer WHERE Name = 'John'`)
	if got := db.table("Orders").RowCount(); got != 3 {
		t.Errorf("orders = %d; dropped trigger still fired", got)
	}
	if _, err := db.Exec(`DROP TRIGGER cust_del`); err == nil {
		t.Error("double drop should fail")
	}
}

func TestInsertSelect(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	db.MustExec(`CREATE TABLE temp_ord (id INTEGER, parentId INTEGER, Date VARCHAR(20), Status VARCHAR(20))`)
	n, err := db.Exec(`INSERT INTO temp_ord SELECT * FROM Orders WHERE parentId = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("inserted %d, want 2", n)
	}
	// Remap and insert back — the table-based insert shape.
	db.MustExec(`UPDATE temp_ord SET id = id + 100, parentId = 3`)
	db.MustExec(`INSERT INTO Orders SELECT * FROM temp_ord`)
	rows, _ := db.Query(`SELECT id FROM Orders WHERE parentId = 3`)
	if len(rows.Data) != 2 {
		t.Errorf("remapped rows = %d", len(rows.Data))
	}
}

func TestInsertWithColumnList(t *testing.T) {
	db := custSchema(t)
	db.MustExec(`INSERT INTO Customer (id, Name) VALUES (9, 'Zoe')`)
	rows, _ := db.Query(`SELECT id, Name, Address_City FROM Customer`)
	r := rows.Data[0]
	if r[0] != Int(9) || r[1] != Text("Zoe") || !r[2].IsNull() {
		t.Errorf("row = %v", r)
	}
}

func TestSelectDistinct(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`SELECT DISTINCT Name FROM Customer`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Errorf("distinct names = %d, want 2", len(rows.Data))
	}
}

func TestOrderByDesc(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`SELECT id FROM Orders ORDER BY id DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != Int(12) || rows.Data[2][0] != Int(10) {
		t.Errorf("desc order = %v", rows.Data)
	}
}

func TestDropTable(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	db.MustExec(`DROP TABLE t`)
	if db.table("t") != nil {
		t.Error("table still present")
	}
	if _, err := db.Exec(`DROP TABLE t`); err == nil {
		t.Error("dropping missing table should fail")
	}
	db.MustExec(`DROP TABLE IF EXISTS t`)
}

func TestParseErrors(t *testing.T) {
	db := NewDB()
	bad := []string{
		``,
		`SELEC 1`,
		`CREATE TABLE`,
		`CREATE TABLE t (a BOGUS)`,
		`INSERT INTO`,
		`DELETE t`,
		`UPDATE t SET`,
		`SELECT FROM t`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t UNION SELECT * FROM t`, // only UNION ALL
		`CREATE TRIGGER x AFTER INSERT ON t FOR EACH ROW DELETE FROM t`,
	}
	for _, s := range bad {
		if _, err := db.Exec(s); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", s)
		}
	}
}

func TestUnknownTableAndColumnErrors(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	if _, err := db.Query(`SELECT * FROM nosuch`); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := db.Query(`SELECT nosuch FROM t`); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := db.Exec(`INSERT INTO t (nosuch) VALUES (1)`); err == nil {
		t.Error("unknown insert column should fail")
	}
}

func TestStringEscaping(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (s VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES ('it''s')`)
	rows, _ := db.Query(`SELECT s FROM t WHERE s = 'it''s'`)
	if len(rows.Data) != 1 || rows.Data[0][0] != Text("it's") {
		t.Errorf("escaped string = %v", rows.Data)
	}
	if got := FormatValue(Text("it's")); got != "'it''s'" {
		t.Errorf("FormatValue = %s", got)
	}
}

func TestStatsCounters(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	db.ResetStats()
	db.MustExec(`DELETE FROM OrderLine WHERE ItemName = 'tire'`)
	st := db.Stats()
	if st.Statements != 1 || st.RowsDeleted != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.RowsScanned < 4 {
		t.Errorf("scan count = %d, want full scan of 4", st.RowsScanned)
	}
}

func TestIndexProbeScansLess(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	db.ResetStats()
	// parentId is indexed: the probe should not scan the whole table.
	db.MustExec(`DELETE FROM OrderLine WHERE parentId = 10`)
	st := db.Stats()
	if st.RowsScanned > 2 {
		t.Errorf("indexed delete scanned %d rows, want ≤ 2", st.RowsScanned)
	}
}

// TestPropertyInsertDeleteCount checks that inserting n rows and deleting
// them all always empties the table regardless of key distribution.
func TestPropertyInsertDeleteCount(t *testing.T) {
	f := func(keys []uint8) bool {
		db := NewDB()
		db.MustExec(`CREATE TABLE t (k INTEGER, v VARCHAR)`)
		db.MustExec(`CREATE INDEX idx_k ON t (k)`)
		for _, k := range keys {
			if _, err := db.Exec(`INSERT INTO t VALUES (` + FormatValue(Int(int64(k))) + `, 'x')`); err != nil {
				return false
			}
		}
		if db.table("t").RowCount() != len(keys) {
			return false
		}
		n, err := db.Exec(`DELETE FROM t`)
		if err != nil || n != len(keys) {
			return false
		}
		return db.table("t").RowCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIndexEquivalence checks that indexed and unindexed equality
// scans return identical results.
func TestPropertyIndexEquivalence(t *testing.T) {
	f := func(keys []uint8, probe uint8) bool {
		plain := NewDB()
		plain.MustExec(`CREATE TABLE t (k INTEGER)`)
		indexed := NewDB()
		indexed.MustExec(`CREATE TABLE t (k INTEGER)`)
		indexed.MustExec(`CREATE INDEX i ON t (k)`)
		for _, k := range keys {
			v := FormatValue(Int(int64(k)))
			plain.MustExec(`INSERT INTO t VALUES (` + v + `)`)
			indexed.MustExec(`INSERT INTO t VALUES (` + v + `)`)
		}
		q := `SELECT k FROM t WHERE k = ` + FormatValue(Int(int64(probe)))
		a, err1 := plain.Query(q)
		b, err2 := indexed.Query(q)
		if err1 != nil || err2 != nil {
			return false
		}
		return len(a.Data) == len(b.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNullSortsFirst(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (2), (NULL), (1)`)
	rows, _ := db.Query(`SELECT a FROM t ORDER BY a`)
	if !rows.Data[0][0].IsNull() || rows.Data[1][0] != Int(1) || rows.Data[2][0] != Int(2) {
		t.Errorf("order = %v (NULL must sort first for Sorted Outer Union)", rows.Data)
	}
}

func TestComments(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (a INTEGER) -- trailing comment")
	db.MustExec("-- leading comment\nINSERT INTO t VALUES (1)")
	rows, _ := db.Query(`SELECT a FROM t`)
	if len(rows.Data) != 1 {
		t.Error("comments broke execution")
	}
}

func TestQueryRejectsNonSelect(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	if _, err := db.Query(`DELETE FROM t`); err == nil || !strings.Contains(err.Error(), "SELECT") {
		t.Errorf("Query of DELETE: %v", err)
	}
}
