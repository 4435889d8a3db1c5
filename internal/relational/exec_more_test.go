package relational

import (
	"strings"
	"testing"
)

// Additional executor coverage: CTE plumbing, expression corners, trigger
// bodies beyond the common cascades.

func TestCTEChaining(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`
WITH A(cid) AS (SELECT id FROM Customer WHERE Name = 'John'),
     B(oid) AS (SELECT O.id FROM A, Orders O WHERE O.parentId = A.cid)
SELECT COUNT(*) FROM B`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != Int(2) {
		t.Errorf("chained CTE count = %v", rows.Data[0][0])
	}
}

func TestCTEColumnMismatch(t *testing.T) {
	db := custSchema(t)
	_, err := db.Query(`WITH A(x, y) AS (SELECT id FROM Customer) SELECT * FROM A`)
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Errorf("expected column-count error, got %v", err)
	}
}

func TestCTEShadowsNothing(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	// A CTE named like a table is resolved before the base table.
	rows, err := db.Query(`WITH Customer(id) AS (SELECT id FROM Orders) SELECT COUNT(*) FROM Customer`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != Int(3) {
		t.Errorf("CTE did not take precedence: %v", rows.Data[0][0])
	}
}

func TestUnaryMinusAndArithmetic(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	db.MustExec(`INSERT INTO t VALUES (10)`)
	rows, err := db.Query(`SELECT a + 5, a - 3, a * 2, a / 4, -a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	r := rows.Data[0]
	want := []int64{15, 7, 20, 2, -10}
	for i, w := range want {
		if r[i] != Int(w) {
			t.Errorf("expr %d = %v, want %d", i, r[i], w)
		}
	}
	if _, err := db.Query(`SELECT a / 0 FROM t`); err == nil {
		t.Error("division by zero should fail")
	}
	// Arithmetic with NULL yields NULL.
	db.MustExec(`CREATE TABLE n (a INTEGER)`)
	db.MustExec(`INSERT INTO n VALUES (NULL)`)
	rows, _ = db.Query(`SELECT a + 1 FROM n`)
	if !rows.Data[0][0].IsNull() {
		t.Errorf("NULL + 1 = %v", rows.Data[0][0])
	}
}

func TestNotAndParentheses(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`SELECT Name FROM Customer WHERE NOT (Name = 'John')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != Text("Mary") {
		t.Errorf("NOT = %v", rows.Data)
	}
}

func TestUpdateTriggerBody(t *testing.T) {
	// A trigger whose body is an UPDATE (marking rather than cascading).
	db := custSchema(t)
	loadCustData(t, db)
	db.MustExec(`CREATE TABLE audit (n INTEGER)`)
	db.MustExec(`INSERT INTO audit VALUES (0)`)
	db.MustExec(`CREATE TRIGGER cust_audit AFTER DELETE ON Customer FOR EACH ROW UPDATE audit SET n = n + 1`)
	db.MustExec(`DELETE FROM Customer WHERE Name = 'John'`)
	rows, _ := db.Query(`SELECT n FROM audit`)
	if rows.Data[0][0] != Int(2) {
		t.Errorf("audit count = %v, want 2", rows.Data[0][0])
	}
}

func TestTriggerChainsAcrossTables(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	// Mixed granularity: row trigger on Customer, statement trigger on
	// Orders.
	db.MustExec(`CREATE TRIGGER c AFTER DELETE ON Customer FOR EACH ROW DELETE FROM Orders WHERE parentId = OLD.id`)
	db.MustExec(`CREATE TRIGGER o AFTER DELETE ON Orders FOR EACH STATEMENT DELETE FROM OrderLine WHERE parentId NOT IN (SELECT id FROM Orders)`)
	db.MustExec(`DELETE FROM Customer`)
	if db.table("OrderLine").RowCount() != 0 {
		t.Error("mixed-granularity cascade incomplete")
	}
}

func TestOrderByPositional(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`SELECT Date, id FROM Orders ORDER BY 2 DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][1] != Int(12) {
		t.Errorf("positional order by = %v", rows.Data)
	}
	if _, err := db.Query(`SELECT id FROM Orders ORDER BY 9`); err == nil {
		t.Error("out-of-range positional key should fail")
	}
}

func TestSelectExprAliases(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`SELECT Name AS who, id ident FROM Customer WHERE Name = 'Mary'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Cols[0] != "who" || rows.Cols[1] != "ident" {
		t.Errorf("aliases = %v", rows.Cols)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := NewDB()
	rows, err := db.Query(`SELECT 1 + 2, 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != Int(3) || rows.Data[0][1] != Text("x") {
		t.Errorf("constant select = %v", rows.Data[0])
	}
}

func TestInsertSelectColumnSubset(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	db.MustExec(`CREATE TABLE names (id INTEGER, who VARCHAR)`)
	n, err := db.Exec(`INSERT INTO names (id, who) SELECT id, Name FROM Customer`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("inserted %d", n)
	}
}

func TestDeleteViaInSubqueryOnSameTable(t *testing.T) {
	// The ASR-insert pattern: WHERE id IN (SELECT DISTINCT … FROM other).
	db := custSchema(t)
	loadCustData(t, db)
	n, err := db.Exec(`DELETE FROM OrderLine WHERE parentId IN (SELECT id FROM Orders WHERE Status = 'ready')`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("deleted %d, want 3", n)
	}
}

func TestAggregateWithJoin(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	rows, err := db.Query(`
SELECT COUNT(*), MAX(OL.Qty) FROM Orders O, OrderLine OL
WHERE OL.parentId = O.id AND O.Status = 'ready'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != Int(3) || rows.Data[0][1] != Int(4) {
		t.Errorf("joined aggregate = %v", rows.Data[0])
	}
}

func TestEmptyInListNever(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	// IN over an empty subquery result: nothing matches; NOT IN matches all.
	rows, _ := db.Query(`SELECT id FROM Orders WHERE parentId IN (SELECT id FROM Customer WHERE Name = 'Ghost')`)
	if len(rows.Data) != 0 {
		t.Errorf("IN empty = %d rows", len(rows.Data))
	}
	rows, _ = db.Query(`SELECT id FROM Orders WHERE parentId NOT IN (SELECT id FROM Customer WHERE Name = 'Ghost')`)
	if len(rows.Data) != 3 {
		t.Errorf("NOT IN empty = %d rows", len(rows.Data))
	}
}

func TestTableNamesListing(t *testing.T) {
	db := custSchema(t)
	names := db.TableNames()
	if len(names) != 3 {
		t.Fatalf("tables = %v", names)
	}
	if names[0] != "Customer" {
		t.Errorf("sorted order wrong: %v", names)
	}
}

func TestDropIndexFallsBackToScan(t *testing.T) {
	db := custSchema(t)
	loadCustData(t, db)
	tab := db.table("OrderLine")
	if !tab.DropIndex("parentId") {
		t.Fatal("DropIndex failed")
	}
	if tab.DropIndex("parentId") {
		t.Error("second drop should report false")
	}
	db.ResetStats()
	db.MustExec(`DELETE FROM OrderLine WHERE parentId = 10`)
	if st := db.Stats(); st.RowsScanned < 4 {
		t.Errorf("expected full scan after index drop, scanned %d", st.RowsScanned)
	}
}
