package relational

import "testing"

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

	db.Restore(snap)
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
	db.Restore(snap)

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
	db.Restore(snap)
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
	db.Restore(snap)
	db.MustExec(`UPDATE t SET s = 'second'`)
	db.Restore(snap)
	rows, _ := db.Query(`SELECT s FROM t`)
	if rows.Data[0][0] != Text("orig") {
		t.Errorf("snapshot contaminated: %v", rows.Data[0][0])
	}
}
