package relational

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// tableDump is a canonical rendering of a table's complete observable state:
// the rows array (length and tombstone pattern included), the live count,
// every hash index's contents (rowids sorted per value — bucket order is
// unspecified), and every ordered index's live entries in key order. Two
// equal dumps mean the table is indistinguishable from the compared state.
func tableDump(t *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows(len=%d live=%d):\n", len(t.rows), t.live)
	for rid := range t.rows {
		// Row faults evicted pages back in under the paged backend; in
		// memory mode it is the plain slot read.
		row := t.Row(rid)
		if row == nil {
			fmt.Fprintf(&b, "  %d: <dead>\n", rid)
			continue
		}
		fmt.Fprintf(&b, "  %d:", rid)
		for _, v := range row {
			fmt.Fprintf(&b, " %s", FormatValue(v))
		}
		b.WriteByte('\n')
	}
	var hnames []string
	for name := range t.index {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		idx := t.index[name]
		fmt.Fprintf(&b, "hash %s:\n", name)
		var keys []string
		byKey := make(map[string][]int)
		for v, rids := range idx.entries {
			k := FormatValue(v)
			keys = append(keys, k)
			cp := append([]int(nil), rids...)
			sort.Ints(cp)
			byKey[k] = cp
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s -> %v\n", k, byKey[k])
		}
	}
	for _, oidx := range t.orderedList {
		fmt.Fprintf(&b, "ordered %s:\n", oidx.name)
		for _, k := range oidx.tree.collectLive(t, nil) {
			fmt.Fprintf(&b, "  %v/%v rid=%d\n", FormatValue(k.vals[0]), FormatValue(k.vals[1]), k.rid)
		}
	}
	return b.String()
}

func dbDump(db *DB) string {
	var b strings.Builder
	for _, name := range db.TableNames() {
		fmt.Fprintf(&b, "== %s ==\n%s", name, tableDump(db.Table(name)))
	}
	return b.String()
}

func txnTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, pos INTEGER, name VARCHAR(64))")
	db.MustExec("CREATE ORDERED INDEX ip ON item (parentId, pos)")
	for i := 0; i < 20; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, %d, 'n%d')", i+1, i%4, i/4, i+1))
	}
	return db
}

// TestFailedInsertRollsBackStatement is the partial-mutation regression
// test: a multi-row INSERT whose nth row violates the unique id column must
// leave the table — rows, live count, hash and ordered indexes — identical
// to its pre-statement state, not with rows 1..n-1 applied.
func TestFailedInsertRollsBackStatement(t *testing.T) {
	db := txnTestDB(t)
	before := dbDump(db)
	// Rows 21 and 22 are fine; 5 collides with an existing id.
	_, err := db.Exec("INSERT INTO item VALUES (21, 0, 90, 'a'), (22, 0, 91, 'b'), (5, 0, 92, 'c')")
	if err == nil {
		t.Fatalf("expected unique violation")
	}
	if got := dbDump(db); got != before {
		t.Errorf("table state changed across failed INSERT:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
	// Rowids must also be unchanged for future inserts: the next insert
	// reuses the rowid the rolled-back statement briefly occupied.
	if n := db.MustExec("INSERT INTO item VALUES (21, 0, 90, 'a')"); n != 1 {
		t.Fatalf("insert after rollback: %d rows", n)
	}
	rows, err := db.Query("SELECT id FROM item WHERE id = 21")
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("row not found after re-insert: %v", err)
	}
}

// TestFailedUpdateRollsBackStatement: an UPDATE hitting a unique violation
// on a later row must undo the rows it already moved, including their hash
// and B+tree index entries.
func TestFailedUpdateRollsBackStatement(t *testing.T) {
	db := txnTestDB(t)
	before := dbDump(db)
	// Shifting every id by 4 collides once the shifted range overlaps the
	// unshifted tail (1+4=5 exists), after some rows have already moved.
	if _, err := db.Exec("UPDATE item SET id = id + 4"); err == nil {
		t.Fatalf("expected unique violation")
	}
	if got := dbDump(db); got != before {
		t.Errorf("table state changed across failed UPDATE:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
	// The ordered index must still serve consistent range scans.
	rows, err := db.Query("SELECT id, pos FROM item WHERE parentId = 1 AND pos >= 1 ORDER BY pos")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 4 {
		t.Fatalf("range scan after rollback: got %d rows, want 4", len(rows.Data))
	}
}

// TestFailedDeleteTriggerRollsBackStatement: a DELETE whose trigger body
// fails must also undo the deletions that already happened.
func TestFailedDeleteTriggerRollsBackStatement(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE parent (id INTEGER, name VARCHAR(16))")
	db.MustExec("CREATE TABLE child (id INTEGER, parentId INTEGER)")
	db.MustExec("INSERT INTO parent VALUES (1, 'a'), (2, 'b')")
	db.MustExec("INSERT INTO child VALUES (10, 1), (11, 2)")
	// The trigger body references a column that does not exist, so it
	// errors at execution time, after the parent rows are gone.
	db.MustExec("CREATE TRIGGER boom AFTER DELETE ON parent FOR EACH ROW DELETE FROM child WHERE nosuch = OLD.id")
	before := dbDump(db)
	if _, err := db.Exec("DELETE FROM parent"); err == nil {
		t.Fatalf("expected trigger failure")
	}
	if got := dbDump(db); got != before {
		t.Errorf("state changed across failed DELETE:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}

// TestExplicitTxnCommitAndRollback covers the SQL-level BEGIN/COMMIT/
// ROLLBACK statements through DB.Exec.
func TestExplicitTxnCommitAndRollback(t *testing.T) {
	db := txnTestDB(t)
	before := dbDump(db)

	// Rolled-back transaction: inserts, deletes, and updates all revert.
	if _, err := db.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO item VALUES (100, 0, 50, 'tmp')")
	db.MustExec("DELETE FROM item WHERE id = 3")
	db.MustExec("UPDATE item SET pos = pos + 10 WHERE parentId = 2")
	if _, err := db.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if got := dbDump(db); got != before {
		t.Errorf("ROLLBACK did not restore state:\n--- before ---\n%s--- after ---\n%s", before, got)
	}

	// Committed transaction: effects persist.
	if _, err := db.Exec("BEGIN TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO item VALUES (100, 0, 50, 'kept')")
	if _, err := db.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT name FROM item WHERE id = 100")
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0] != Text("kept") {
		t.Fatalf("committed insert missing: %v %v", rows, err)
	}

	// COMMIT with no open transaction errors.
	if _, err := db.Exec("COMMIT"); err == nil {
		t.Fatalf("expected error for COMMIT without BEGIN")
	}
}

// TestTxHandle exercises the Begin() handle API: statement atomicity inside
// the transaction, reads observing uncommitted writes, and rollback.
func TestTxHandle(t *testing.T) {
	db := txnTestDB(t)
	before := dbDump(db)

	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO item VALUES (50, 9, 0, 'x')"); err != nil {
		t.Fatal(err)
	}
	// The transaction sees its own write.
	rows, err := tx.Query("SELECT id FROM item WHERE id = 50")
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("txn does not see own write: %v %v", rows, err)
	}
	// A failing statement rolls back itself, not the transaction.
	if _, err := tx.Exec("INSERT INTO item VALUES (51, 9, 1, 'y'), (50, 9, 2, 'dup')"); err == nil {
		t.Fatalf("expected unique violation")
	}
	rows, err = tx.Query("SELECT id FROM item WHERE id IN (50, 51)")
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("statement rollback wrong: %v %v", rows, err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := dbDump(db); got != before {
		t.Errorf("handle rollback did not restore state:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
	// Operations on a finished transaction fail.
	if _, err := tx.Exec("INSERT INTO item VALUES (60, 0, 0, 'z')"); err == nil {
		t.Fatalf("expected error on finished txn")
	}
	if err := tx.Commit(); err == nil {
		t.Fatalf("expected error on double finish")
	}
}

// TestTxnInsertDeleteInterleaved: inserting and then deleting (or updating)
// the same row inside one rolled-back transaction must still restore the
// exact pre-transaction rowid sequence.
func TestTxnInsertDeleteInterleaved(t *testing.T) {
	db := txnTestDB(t)
	before := dbDump(db)
	tx := db.Begin()
	for _, sql := range []string{
		"INSERT INTO item VALUES (70, 5, 0, 'p')",
		"INSERT INTO item VALUES (71, 5, 1, 'q')",
		"UPDATE item SET name = 'p2', pos = 9 WHERE id = 70",
		"DELETE FROM item WHERE id = 70",
		"DELETE FROM item WHERE id = 2",
		"INSERT INTO item VALUES (72, 5, 2, 'r')",
	} {
		if _, err := tx.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := dbDump(db); got != before {
		t.Errorf("interleaved rollback wrong:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}

// TestSnapshotRestoreAfterTxnHistory: Snapshot/Restore round-trips across a
// history of committed and aborted transactions.
func TestSnapshotRestoreAfterTxnHistory(t *testing.T) {
	db := txnTestDB(t)
	snap := db.Snapshot()
	want := dbDump(db)

	tx := db.Begin()
	tx.Exec("UPDATE item SET pos = pos + 100")
	tx.Rollback()
	db.MustExec("DELETE FROM item WHERE id = 7")
	tx = db.Begin()
	tx.Exec("INSERT INTO item VALUES (90, 1, 9, 'w')")
	tx.Commit()

	db.Restore(snap)
	if got := dbDump(db); got != want {
		t.Errorf("Restore after txn history:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	// And the restored state still accepts transactions.
	tx = db.Begin()
	if _, err := tx.Exec("UPDATE item SET name = 'zz' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitCompactsOrderedIndexes: lazy B+tree tombstones are reclaimed at
// commit once they outnumber live rows (compaction moved off the read path).
func TestCommitCompactsOrderedIndexes(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER, k INTEGER)")
	db.MustExec("CREATE ORDERED INDEX tk ON t (k, id)")
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%10))
	}
	db.MustExec("DELETE FROM t WHERE id >= 40") // 60 stale > 40 live
	tab := db.Table("t")
	oidx := tab.orderedList[0]
	if oidx.stale != 0 || oidx.tree.size != 40 {
		t.Fatalf("commit did not compact: stale=%d size=%d", oidx.stale, oidx.tree.size)
	}
	rows, err := db.Query("SELECT id FROM t WHERE k = 3 ORDER BY id")
	if err != nil || len(rows.Data) != 4 {
		t.Fatalf("post-compaction scan: %v %v", rows, err)
	}
}

// TestDDLRollback: schema changes made inside a transaction are reversed on
// rollback — a dropped table comes back with its rows and indexes, and
// created tables, indexes, and triggers disappear again.
func TestDDLRollback(t *testing.T) {
	db := txnTestDB(t)
	db.MustExec("CREATE TABLE keep (id INTEGER)")
	db.MustExec("CREATE TRIGGER tr AFTER DELETE ON item FOR EACH ROW DELETE FROM keep WHERE id = OLD.id")
	before := dbDump(db)

	tx := db.Begin()
	for _, sql := range []string{
		"DROP TABLE keep",
		"CREATE TABLE tmp (id INTEGER, v VARCHAR(8))",
		"INSERT INTO tmp VALUES (1, 'x')",
		"CREATE ORDERED INDEX iv ON item (pos, id)",
		"DROP TRIGGER tr",
		"CREATE TRIGGER tr2 AFTER DELETE ON item FOR EACH STATEMENT DELETE FROM item WHERE id = 0",
	} {
		if _, err := tx.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := dbDump(db); got != before {
		t.Errorf("DDL rollback wrong:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
	if db.Table("tmp") != nil {
		t.Errorf("created table survived rollback")
	}
	if got := db.Table("item").OrderedIndexes(); len(got) != 1 {
		t.Errorf("created index survived rollback: %v", got)
	}
	// The restored trigger still fires; tr2 must be gone (its firing would
	// error by deleting during iteration — just check the registry via a
	// working delete).
	db.MustExec("INSERT INTO keep VALUES (1)")
	db.MustExec("DELETE FROM item WHERE id = 1")
	if n := db.RowCount("keep"); n != 0 {
		t.Errorf("restored trigger did not fire: keep has %d rows", n)
	}
}

// TestSQLTxnQueriesJoin: SELECTs issued through the DB while a SQL-level
// transaction is open join it (seeing uncommitted writes) instead of
// deadlocking on the reader lock.
func TestSQLTxnQueriesJoin(t *testing.T) {
	db := txnTestDB(t)
	db.MustExec("BEGIN")
	db.MustExec("INSERT INTO item VALUES (200, 0, 99, 'ghost')")
	rows, err := db.Query("SELECT name FROM item WHERE id = 200")
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("query inside SQL txn: %v %v", rows, err)
	}
	p, err := db.Prepare("SELECT name FROM item WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	rows, err = p.Query(Int(int64(200)))
	if err != nil || len(rows.Data) != 1 {
		t.Fatalf("prepared query inside SQL txn: %v %v", rows, err)
	}
	db.MustExec("ROLLBACK")
	rows, err = db.Query("SELECT name FROM item WHERE id = 200")
	if err != nil || len(rows.Data) != 0 {
		t.Fatalf("after rollback: %v %v", rows, err)
	}
}
