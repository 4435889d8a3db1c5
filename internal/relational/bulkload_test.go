package relational

import (
	"errors"
	"strings"
	"testing"
)

// TestBulkLoadRefusesOpenTxn: a bulk load is invisible to no one, so it
// refuses while a handle transaction or a SQL-level BEGIN holds a snapshot,
// and succeeds once both are gone.
func TestBulkLoadRefusesOpenTxn(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER, parentId INTEGER)")
	rows := map[string][][]Value{"t": {{Int(1), Null}}}

	tx := db.Begin()
	if err := db.BulkLoad(rows); !errors.Is(err, errBulkOpenTxn) {
		t.Fatalf("BulkLoad inside Begin: err = %v, want errBulkOpenTxn", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	db.MustExec("BEGIN")
	if err := db.BulkLoad(rows); !errors.Is(err, errBulkOpenTxn) {
		t.Fatalf("BulkLoad inside SQL BEGIN: err = %v, want errBulkOpenTxn", err)
	}
	db.MustExec("ROLLBACK")
	if got := db.RowCount("t"); got != 0 {
		t.Fatalf("refused loads left %d rows", got)
	}
	if err := db.BulkLoad(rows); err != nil {
		t.Fatalf("BulkLoad with no transaction open: %v", err)
	}
	if got := db.RowCount("t"); got != 1 {
		t.Fatalf("rows = %d, want 1", got)
	}
}

// TestBulkLoadAllOrNothing: a duplicate id in the last table loaded fails
// the whole load, and every table — rows array, live counts, hash and
// ordered indexes — is exactly as before; the same rows without the
// duplicate then load at the rowids the failed attempt would have used.
func TestBulkLoadAllOrNothing(t *testing.T) {
	db := NewDB()
	for _, name := range []string{"a", "b"} {
		db.MustExec("CREATE TABLE " + name + " (id INTEGER, parentId INTEGER, pos INTEGER, name VARCHAR(16))")
		db.MustExec("CREATE ORDERED INDEX " + name + "p ON " + name + " (parentId, pos)")
	}
	db.MustExec("INSERT INTO a VALUES (1, NULL, 0, 'root')")
	db.MustExec("INSERT INTO b VALUES (2, 1, 0, 'x')")
	before := dbDump(db)

	a := [][]Value{{Int(3), Int(1), Int(1), Text("p")}, {Int(4), Int(1), Int(2), Text("q")}}
	err := db.BulkLoad(map[string][][]Value{
		"a": a,
		"b": {{Int(5), Int(3), Int(0), Text("r")}, {Int(2), Int(4), Int(0), Text("dup")}},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate id in the last table: err = %v, want a duplicate error", err)
	}
	if got := dbDump(db); got != before {
		t.Fatalf("failed bulk load left a trace:\n--- before ---\n%s--- after ---\n%s", before, got)
	}

	if err := db.BulkLoad(map[string][][]Value{"a": a, "b": {{Int(5), Int(3), Int(0), Text("r")}}}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT id, pos FROM a WHERE parentId = 1 ORDER BY pos")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 || rows.Data[0][0].MustInt() != 3 || rows.Data[1][0].MustInt() != 4 {
		t.Fatalf("loaded children of 1 = %v, want ids 3, 4", rows.Data)
	}
	if got := db.RowCount("b"); got != 2 {
		t.Fatalf("b rows = %d, want 2", got)
	}
}

// TestBulkLoadDurableWithoutLog: on a directory DB the load is durable when
// BulkLoad returns because it checkpoints, not because it logs — a reopen
// without Close finds every row and replays no commit record.
func TestBulkLoadDurableWithoutLog(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, noAutoCkpt())
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, name VARCHAR(64))")
	var rows [][]Value
	for i := 1; i <= 200; i++ {
		rows = append(rows, []Value{Int(int64(i)), Int(int64(i / 10)), Text(strings.Repeat("n", i%7))})
	}
	if err := db.BulkLoad(map[string][][]Value{"item": rows}); err != nil {
		t.Fatal(err)
	}
	want := dbDump(db)

	// No Close: reopen the directory as a crash leaves it.
	db2 := mustOpenDB(t, dir, noAutoCkpt())
	defer db2.Close()
	if got := dbDump(db2); got != want {
		t.Fatalf("reopened dump differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if n := db2.RecoveredCommits(); n != 0 {
		t.Fatalf("RecoveredCommits = %d, want 0: the load must not be in the log", n)
	}
}
