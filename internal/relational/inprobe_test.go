package relational

import (
	"fmt"
	"strings"
	"testing"
)

// inProbeDB builds t(id, k, v) with 30 rows (k = id mod 7) and a hash index
// on k, plus a per-row delete trigger that folds the deleted ids into seq.n
// as a rolling hash of the firing order (n = n*31 + id, wrapping). With
// indexed false the k index is dropped again, leaving the heap scan as the
// only path.
func inProbeDB(t *testing.T, indexed bool) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE t (id INTEGER, k INTEGER, v VARCHAR)`)
	db.MustExec(`CREATE TABLE seq (n INTEGER)`)
	db.MustExec(`INSERT INTO seq VALUES (0)`)
	db.MustExec(`CREATE TRIGGER fold AFTER DELETE ON t FOR EACH ROW UPDATE seq SET n = n * 31 + OLD.id`)
	for i := 1; i <= 30; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d, 'v%d')`, i, i%7, i))
	}
	db.MustExec(`CREATE INDEX ik ON t (k)`)
	if !indexed {
		db.tables["t"].DropIndex("k")
	}
	return db
}

// rowsText renders a query's rows in result order.
func rowsText(t *testing.T, s Session, sql string) string {
	t.Helper()
	rows, err := s.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var b strings.Builder
	for _, r := range rows.Data {
		for _, v := range r {
			b.WriteString(FormatValue(v) + " ")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func explainHas(t *testing.T, db *DB, sql, want string) {
	t.Helper()
	out, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, want) {
		t.Errorf("EXPLAIN %s: want %q in\n%s", sql, want, out)
	}
}

// TestInProbeMatchesScan: an IN-list of constants on a hash-indexed column
// plans as InProbe, and SELECT, UPDATE and DELETE through it return the
// same rows in the same order — and fire row triggers in the same order —
// as the heap scan with the index dropped.
func TestInProbeMatchesScan(t *testing.T) {
	probe, scan := inProbeDB(t, true), inProbeDB(t, false)
	explainHas(t, probe, `SELECT id FROM t WHERE k IN (5, 2)`, "InProbe t (k IN (5, 2))")
	explainHas(t, probe, `UPDATE t SET v = 'x' WHERE k IN (5, 2)`, "InProbe t (k IN (5, 2))")
	explainHas(t, probe, `DELETE FROM t WHERE k IN (5, 2)`, "InProbe t (k IN (5, 2))")
	explainHas(t, scan, `SELECT id FROM t WHERE k IN (5, 2)`, "Scan t")

	for _, q := range []string{
		`SELECT id, k, v FROM t WHERE k IN (5, 2)`,
		`SELECT id FROM t WHERE k IN (3) AND v != 'v10'`,
		`SELECT COUNT(*) FROM t WHERE k IN (1, 4, 6)`,
		`SELECT id FROM t WHERE k IN (9, 10)`,
	} {
		if a, b := rowsText(t, probe, q), rowsText(t, scan, q); a != b {
			t.Errorf("%s: InProbe\n%sscan\n%s", q, a, b)
		}
	}
	for _, db := range []*DB{probe, scan} {
		if n := db.MustExec(`UPDATE t SET v = 'moved', k = 6 WHERE k IN (5, 2)`); n != 9 {
			t.Errorf("UPDATE matched %d rows, want 9", n)
		}
		if n := db.MustExec(`DELETE FROM t WHERE k IN (6, 1)`); n != 18 {
			t.Errorf("DELETE matched %d rows, want 18", n)
		}
	}
	const all = `SELECT id, k, v FROM t`
	if a, b := rowsText(t, probe, all), rowsText(t, scan, all); a != b {
		t.Errorf("table after UPDATE and DELETE: InProbe\n%sscan\n%s", a, b)
	}
	const fired = `SELECT n FROM seq`
	if a, b := rowsText(t, probe, fired), rowsText(t, scan, fired); a != b {
		t.Errorf("trigger firing order: InProbe %s, scan %s", a, b)
	}
}

// TestInProbeListEdges: a duplicate item (or two items with one joinKey)
// yields its rows once, a NULL item matches nothing, and NOT IN and
// IN (subquery) stay scans.
func TestInProbeListEdges(t *testing.T) {
	db := inProbeDB(t, true)
	count := func(sql string) int64 {
		t.Helper()
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rows.Data[0][0].MustInt()
	}
	for q, want := range map[string]int64{
		`SELECT COUNT(*) FROM t WHERE k IN (3, 3)`:    4,
		`SELECT COUNT(*) FROM t WHERE k IN (3, '3')`:  4,
		`SELECT COUNT(*) FROM t WHERE k IN (NULL)`:    0,
		`SELECT COUNT(*) FROM t WHERE k IN (NULL, 3)`: 4,
	} {
		if got := count(q); got != want {
			t.Errorf("%s = %d, want %d", q, got, want)
		}
	}
	if n := db.MustExec(`DELETE FROM t WHERE k IN (3, 3, NULL)`); n != 4 {
		t.Errorf("DELETE with a duplicate and a NULL item matched %d rows, want 4", n)
	}
	explainHas(t, db, `SELECT id FROM t WHERE k NOT IN (1, 2)`, "Scan t")
	explainHas(t, db, `SELECT id FROM t WHERE k IN (SELECT n FROM seq)`, "Scan t")
	explainHas(t, db, `DELETE FROM t WHERE k NOT IN (1, 2)`, "Scan t")
}

// TestInProbeSnapshotVersion: under an open snapshot, a row updated since
// is found at its visible version. The bucket of the new key holds the row
// too, but the re-checked IN conjunct rejects the version the snapshot sees.
func TestInProbeSnapshotVersion(t *testing.T) {
	db := inProbeDB(t, true)
	tx := db.Begin()
	defer tx.Rollback()
	db.MustExec(`UPDATE t SET k = 99 WHERE id = 3`)
	for _, c := range []struct {
		s    Session
		q    string
		want string
	}{
		{tx, `SELECT id, k FROM t WHERE k IN (3, 99)`, "3 3 \n10 3 \n17 3 \n24 3 \n"},
		{tx, `SELECT id FROM t WHERE k IN (99)`, ""},
		{db, `SELECT id, k FROM t WHERE k IN (3, 99)`, "3 99 \n10 3 \n17 3 \n24 3 \n"},
	} {
		if got := rowsText(t, c.s, c.q); got != c.want {
			t.Errorf("%T %s:\n%swant\n%s", c.s, c.q, got, c.want)
		}
	}
}

// TestInProbeStats: an InProbe reads only the rows it matches, with one
// index probe per list item.
func TestInProbeStats(t *testing.T) {
	db := inProbeDB(t, true)
	db.MustExec(`DROP TRIGGER fold`)
	for _, q := range []string{
		`SELECT v FROM t WHERE k IN (0, 2, 4)`,
		`UPDATE t SET v = 'x' WHERE k IN (0, 2, 4)`,
		`DELETE FROM t WHERE k IN (0, 2, 4)`,
	} {
		db.ResetStats()
		if strings.HasPrefix(q, "SELECT") {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		} else {
			db.MustExec(q)
		}
		st := db.Stats()
		// k = 0, 2, 4 hold 4 + 5 + 4 rows.
		if st.RowsScanned != 13 || st.IndexProbes != 3 || st.FullScans != 0 {
			t.Errorf("%s: rows scanned %d, index probes %d, full scans %d; want 13, 3, 0",
				q, st.RowsScanned, st.IndexProbes, st.FullScans)
		}
	}
}
