package relational

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func mustRestore(t *testing.T, db *DB, s *DBSnapshot) {
	t.Helper()
	if err := db.Restore(s); err != nil {
		t.Fatalf("Restore: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (k INTEGER, v VARCHAR)`)
	db.MustExec(`CREATE INDEX idx_k ON t (k)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')`)

	snap := db.Snapshot()

	db.MustExec(`DELETE FROM t WHERE k = 2`)
	db.MustExec(`INSERT INTO t VALUES (9, 'z')`)
	db.MustExec(`UPDATE t SET v = 'changed' WHERE k = 1`)
	if db.table("t").RowCount() != 3 {
		t.Fatalf("precondition: rows = %d", db.table("t").RowCount())
	}

	mustRestore(t, db, snap)
	if got := db.table("t").RowCount(); got != 3 {
		t.Errorf("restored rows = %d, want 3", got)
	}
	rows, _ := db.Query(`SELECT v FROM t WHERE k = 1`)
	if len(rows.Data) != 1 || rows.Data[0][0] != Text("a") {
		t.Errorf("restored value = %v", rows.Data)
	}
	rows, _ = db.Query(`SELECT v FROM t WHERE k = 2`)
	if len(rows.Data) != 1 {
		t.Errorf("deleted row not restored")
	}
	rows, _ = db.Query(`SELECT v FROM t WHERE k = 9`)
	if len(rows.Data) != 0 {
		t.Errorf("inserted row survived restore")
	}
}

func TestSnapshotIndexesRebuilt(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (k INTEGER)`)
	db.MustExec(`CREATE INDEX idx_k ON t (k)`)
	for i := 0; i < 100; i++ {
		db.MustExec(`INSERT INTO t VALUES (` + FormatValue(Int(int64(i%10))) + `)`)
	}
	snap := db.Snapshot()
	db.MustExec(`DELETE FROM t`)
	mustRestore(t, db, snap)

	// The index must answer correctly and cheaply after restore.
	db.ResetStats()
	rows, err := db.Query(`SELECT k FROM t WHERE k = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 10 {
		t.Errorf("index probe found %d rows, want 10", len(rows.Data))
	}
	if st := db.Stats(); st.RowsScanned > 10 {
		t.Errorf("probe scanned %d rows; index not rebuilt", st.RowsScanned)
	}
}

func TestSnapshotDropsLaterTables(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (k INTEGER)`)
	snap := db.Snapshot()
	db.MustExec(`CREATE TABLE later (k INTEGER)`)
	mustRestore(t, db, snap)
	if db.table("later") != nil {
		t.Error("table created after snapshot survived restore")
	}
	if db.table("t") == nil {
		t.Error("snapshotted table lost")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	// Mutations after restore must not leak into the snapshot.
	db := NewDB()
	db.MustExec(`CREATE TABLE t (s VARCHAR)`)
	db.MustExec(`INSERT INTO t VALUES ('orig')`)
	snap := db.Snapshot()
	db.MustExec(`UPDATE t SET s = 'first'`)
	mustRestore(t, db, snap)
	db.MustExec(`UPDATE t SET s = 'second'`)
	mustRestore(t, db, snap)
	rows, _ := db.Query(`SELECT s FROM t`)
	if rows.Data[0][0] != Text("orig") {
		t.Errorf("snapshot contaminated: %v", rows.Data[0][0])
	}
}

// TestRestoreOnDirectory: Restore is a memory-DB reset. On a directory DB
// it would bypass the redo log and the page files, so it is refused — with
// a checkpoint before the snapshot and without one — and leaves the rows
// as they were; a reopen after Close, and one from a kill-style copy,
// then holds exactly the acknowledged rows.
func TestRestoreOnDirectory(t *testing.T) {
	for _, ckpt := range []bool{true, false} {
		name := "snapshot"
		if ckpt {
			name = "checkpoint then snapshot"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db := mustOpenDB(t, dir, pagedOpts())
			db.MustExec("CREATE TABLE t (id INTEGER, parentId INTEGER, name VARCHAR(64))")
			db.MustExec("CREATE ORDERED INDEX tp ON t (parentId, id)")
			for i := 1; i <= 51; i++ {
				db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'n%d')", i, i%5, i))
			}
			if ckpt {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			snap := db.Snapshot()
			db.MustExec("INSERT INTO t VALUES (52, 0, 'later')")
			db.MustExec("DELETE FROM t WHERE id = 7")
			before := dbDump(db)
			if err := db.Restore(snap); !errors.Is(err, errRestoreDurable) {
				t.Errorf("Restore on a directory DB: err = %v, want errRestoreDurable", err)
			}
			if got := dbDump(db); got != before {
				t.Errorf("refused Restore changed the DB:\n got:\n%s\nwant:\n%s", got, before)
			}
			db.MustExec("UPDATE t SET name = 'after' WHERE id = 3")
			want := dbDump(db)
			killed := copyDBDir(t, dir)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			for _, d := range []string{dir, killed} {
				rec, err := Open(d, pagedOpts())
				if err != nil {
					t.Fatalf("reopen %s: %v", d, err)
				}
				if got := dbDump(rec); got != want {
					t.Errorf("reopen %s holds other rows than were acknowledged:\n got:\n%s\nwant:\n%s", d, got, want)
				}
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRestoreWithOpenTx: a Restore while a transaction is open would reset
// rows under the transaction's undo log, so it is refused and changes
// nothing; the transaction then still rolls back to the snapshot state,
// after which Restore goes through. Each write runs in place (the
// transaction alone) and as versions (a reader open beside it).
func TestRestoreWithOpenTx(t *testing.T) {
	for _, write := range []string{
		"INSERT INTO item VALUES (21, 1, 9, 'new')",
		"DELETE FROM item WHERE parentId = 2",
		"UPDATE item SET pos = pos + 10, name = 'u' WHERE parentId = 3",
	} {
		for _, versioned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/versioned=%v", strings.Fields(write)[0], versioned), func(t *testing.T) {
				db := txnTestDB(t)
				snap := db.Snapshot()
				want := dbDump(db)
				var reader *Tx
				if versioned {
					reader = db.Begin()
				}
				tx := db.Begin()
				if _, err := tx.Exec(write); err != nil {
					t.Fatal(err)
				}
				during := dbDump(db)
				if err := db.Restore(snap); !errors.Is(err, errRestoreOpenTxn) {
					t.Errorf("Restore with a transaction open: err = %v, want errRestoreOpenTxn", err)
				}
				if got := dbDump(db); got != during {
					t.Errorf("refused Restore changed the DB:\n got:\n%s\nwant:\n%s", got, during)
				}
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				if reader != nil {
					if err := reader.Commit(); err != nil {
						t.Fatal(err)
					}
				}
				if got := dbDump(db); got != want {
					t.Errorf("rollback after refused Restore:\n got:\n%s\nwant:\n%s", got, want)
				}
				db.MustExec(write)
				if err := db.Restore(snap); err != nil {
					t.Fatalf("Restore with no transaction open: %v", err)
				}
				if got := dbDump(db); got != want {
					t.Errorf("Restore:\n got:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}
