package relational

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestLoneWriterUpgrade drives the lone-transaction rule (mvcc.go): an
// explicit transaction with no other session looking writes in place, and
// the first foreign session — a DB-level Query or QueryEach, a second
// Begin, or an autocommit write to a table the transaction has not claimed
// — turns those writes into versions before it reads. For each kind of
// write made before the upgrade and each kind of foreign session, the
// session must see exactly the pre-transaction rows, by scan and by every
// index probe; the transaction must keep seeing its own writes, keep
// writing (a failing statement included), and then commit or roll back.
// After every step every index must equal a rebuild (checkWritesExact),
// and the end state must be the transaction's last view (commit) or the
// pre-transaction state with its rid space (rollback). It runs on a memory
// DB and on a paged DB with a two-page pool.
func TestLoneWriterUpgrade(t *testing.T) {
	cases := []struct {
		name   string
		writes []string
	}{
		{"insert", []string{"INSERT INTO w VALUES (100, 1, 50, 'n')"}},
		{"update", []string{"UPDATE w SET a = 99, b = 'u' WHERE id = 3"}},
		{"two updates", []string{"UPDATE w SET a = 50 WHERE id = 3", "UPDATE w SET a = 51, parentId = 2, b = 'u' WHERE id = 3"}},
		{"delete", []string{"DELETE FROM w WHERE id = 4"}},
		{"insert then delete", []string{"INSERT INTO w VALUES (100, 1, 50, 'n')", "DELETE FROM w WHERE id = 100"}},
		{"update then delete", []string{"UPDATE w SET a = 99, b = 'u' WHERE id = 3", "DELETE FROM w WHERE id = 3"}},
		{"inserts, one updated", []string{"INSERT INTO w VALUES (100, 1, 50, 'n')", "INSERT INTO w VALUES (101, 2, 51, 'n')",
			"UPDATE w SET a = 99 WHERE id = 100", "DELETE FROM w WHERE id = 7"}},
		{"trigger-cascaded delete", []string{"DELETE FROM w WHERE parentId = 1"}},
		{"indexes dropped and rebuilt", []string{"DROP INDEX w (a)", "DROP INDEX w (parentId)",
			"UPDATE w SET a = 99, parentId = 3 WHERE id = 2", "DELETE FROM w WHERE id = 6", "INSERT INTO w VALUES (100, 1, 50, 'n')",
			"CREATE INDEX wa ON w (a)", "CREATE INDEX wp ON w (parentId)", "CREATE ORDERED INDEX wpa ON w (parentId, a)"}},
	}
	sessions := []struct {
		name string
		// open brings the foreign session in and returns its reader and
		// its end (run once the transaction has ended).
		open func(t *testing.T, db *DB, pre map[string]string) (upgradeReader, func())
	}{
		{"DB.Query", func(t *testing.T, db *DB, _ map[string]string) (upgradeReader, func()) {
			return queryReader(db.Query), func() {}
		}},
		{"DB.QueryEach", func(t *testing.T, db *DB, _ map[string]string) (upgradeReader, func()) {
			return func(sql string, args ...Value) ([][]Value, error) {
				var out [][]Value
				_, err := db.QueryEach(sql, func(row []Value) error {
					out = append(out, append([]Value(nil), row...))
					return nil
				}, args...)
				return out, err
			}, func() {}
		}},
		{"second Begin", func(t *testing.T, db *DB, _ map[string]string) (upgradeReader, func()) {
			tx2 := db.Begin()
			return queryReader(tx2.Query), func() {
				if err := tx2.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"autocommit write", func(t *testing.T, db *DB, pre map[string]string) (upgradeReader, func()) {
			if _, err := db.Exec("INSERT INTO o SELECT id, parentId, a, b FROM w"); err != nil {
				t.Fatal(err)
			}
			if got := dumpRows(t, queryReader(db.Query), "SELECT id, parentId, a, b FROM o"); got != pre["scan w"] {
				t.Fatalf("autocommit writer copied\n%s\nwant the pre-transaction rows\n%s", got, pre["scan w"])
			}
			return queryReader(db.Query), func() {}
		}},
	}
	for _, paged := range []bool{false, true} {
		for _, c := range cases {
			for _, s := range sessions {
				for _, commit := range []bool{true, false} {
					end := "rollback"
					if commit {
						end = "commit"
					}
					storage := "memory"
					if paged {
						storage = "paged"
					}
					t.Run(strings.Join([]string{storage, c.name, s.name, end}, "/"), func(t *testing.T) {
						db := NewDB()
						if paged {
							opts := pagedOpts()
							opts.PoolPages = 2
							db = mustOpenDB(t, t.TempDir(), opts)
							defer db.Close()
						}
						seedUpgradeDB(t, db)
						pre := upgradeView(t, queryReader(db.Query))
						preRids := len(db.table("w").rows)

						tx := db.Begin()
						for _, w := range c.writes {
							if _, err := tx.Exec(w); err != nil {
								t.Fatalf("%s: %v", w, err)
							}
						}
						for _, tb := range db.tables {
							if tb.vers != 0 {
								t.Fatalf("lone transaction versioned %s (vers = %d)", tb.Name, tb.vers)
							}
						}
						own := upgradeView(t, queryReader(tx.Query))

						read, closeSession := s.open(t, db, pre)
						before := db.Stats().IndexProbes
						sameView(t, "foreign session", upgradeView(t, read), pre)
						if db.Stats().IndexProbes == before {
							t.Fatal("the foreign view probed no index")
						}
						if db.lone != nil {
							t.Fatal("a foreign session left the transaction lone")
						}
						checkWritesExact(t, db, "upgraded")
						sameView(t, "transaction after the upgrade", upgradeView(t, queryReader(tx.Query)), own)

						for _, w := range []string{
							"UPDATE w SET a = a + 1 WHERE parentId = 2",
							"INSERT INTO w VALUES (200, 3, 7, 'z')",
							"DELETE FROM w WHERE id = 8",
						} {
							if _, err := tx.Exec(w); err != nil {
								t.Fatalf("%s: %v", w, err)
							}
							checkWritesExact(t, db, w)
						}
						// Duplicate id 0 fails after the first row went in.
						if _, err := tx.Exec("INSERT INTO w VALUES (201, 0, 1, 'z'), (0, 0, 1, 'z')"); err == nil {
							t.Fatal("duplicate id accepted")
						}
						checkWritesExact(t, db, "failed statement")
						sameView(t, "foreign session after more writes", upgradeView(t, read), pre)
						final := upgradeView(t, queryReader(tx.Query))

						want := pre
						if commit {
							want = final
							if err := tx.Commit(); err != nil {
								t.Fatal(err)
							}
						} else if err := tx.Rollback(); err != nil {
							t.Fatal(err)
						}
						checkWritesExact(t, db, end)
						closeSession()
						checkWritesExact(t, db, "session closed")
						for _, tb := range db.tables {
							if tb.vers != 0 {
								t.Fatalf("%s still versioned with no snapshot open (vers = %d)", tb.Name, tb.vers)
							}
						}
						sameView(t, "after "+end, upgradeView(t, queryReader(db.Query)), want)
						if n := len(db.table("w").rows); !commit && n != preRids {
							t.Fatalf("rollback left %d rids, want %d", n, preRids)
						}
					})
				}
			}
		}
	}
}

// seedUpgradeDB creates w (12 rows, hash indexes on a and b besides the
// automatic id and parentId ones, two ordered indexes), its child table c
// (two rows per w row) with a delete trigger cascading to it, and o, a
// table no transaction in the test claims.
func seedUpgradeDB(t *testing.T, db *DB) {
	t.Helper()
	for _, ddl := range []string{
		"CREATE TABLE w (id INTEGER, parentId INTEGER, a INTEGER, b VARCHAR)",
		"CREATE INDEX wa ON w (a)",
		"CREATE INDEX wb ON w (b)",
		"CREATE ORDERED INDEX wpa ON w (parentId, a)",
		"CREATE ORDERED INDEX wbi ON w (b, id)",
		"CREATE TABLE c (id INTEGER, parentId INTEGER)",
		"CREATE TRIGGER wdel AFTER DELETE ON w FOR EACH ROW DELETE FROM c WHERE parentId = OLD.id",
		"CREATE TABLE o (id INTEGER, parentId INTEGER, a INTEGER, b VARCHAR)",
	} {
		db.MustExec(ddl)
	}
	bs := []string{"'p'", "'q'", "'p'", "NULL"}
	for id := 0; id < 12; id++ {
		db.MustExec(fmt.Sprintf("INSERT INTO w VALUES (%d, %d, %d, %s)", id, id%4, id%10, bs[id%4]))
		db.MustExec(fmt.Sprintf("INSERT INTO c VALUES (%d, %d), (%d, %d)", 2*id, id, 2*id+1, id))
	}
}

type upgradeReader func(sql string, args ...Value) ([][]Value, error)

func queryReader(q func(string, ...Value) (*Rows, error)) upgradeReader {
	return func(sql string, args ...Value) ([][]Value, error) {
		rows, err := q(sql, args...)
		if err != nil {
			return nil, err
		}
		return rows.Data, nil
	}
}

// dumpRows runs sql and renders its rows sorted, one per line.
func dumpRows(t *testing.T, read upgradeReader, sql string, args ...Value) string {
	t.Helper()
	rows, err := read(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	lines := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = valueString(v)
		}
		lines[i] = strings.Join(cells, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// upgradeView reads everything the test's writes can change: both tables
// by scan, and w by every indexed column (and c by parentId) over every
// value any write uses.
func upgradeView(t *testing.T, read upgradeReader) map[string]string {
	t.Helper()
	v := map[string]string{
		"scan w": dumpRows(t, read, "SELECT id, parentId, a, b FROM w"),
		"scan c": dumpRows(t, read, "SELECT id, parentId FROM c"),
	}
	const cols = "SELECT id, parentId, a, b FROM w WHERE "
	as := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 50, 51, 99}
	for _, id := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100, 101, 200, 201} {
		v[fmt.Sprint("id=", id)] = dumpRows(t, read, cols+"id = ?", Int(id))
	}
	for _, a := range as {
		v[fmt.Sprint("a=", a)] = dumpRows(t, read, cols+"a = ?", Int(a))
	}
	for _, b := range []string{"p", "q", "u", "n", "z"} {
		v["b="+b] = dumpRows(t, read, cols+"b = ?", Text(b))
		v["b,id>5 "+b] = dumpRows(t, read, cols+"b = ? AND id > 5", Text(b))
	}
	for p := int64(0); p < 4; p++ {
		v[fmt.Sprint("parentId=", p)] = dumpRows(t, read, cols+"parentId = ?", Int(p))
		v[fmt.Sprint("c.parentId=", p)] = dumpRows(t, read, "SELECT id, parentId FROM c WHERE parentId = ?", Int(p))
		for _, a := range as {
			v[fmt.Sprint("parentId,a=", p, a)] = dumpRows(t, read, cols+"parentId = ? AND a = ?", Int(p), Int(a))
		}
	}
	return v
}

// sameView fails on the first query whose answer differs from want's.
func sameView(t *testing.T, who string, got, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Fatalf("%s: %s gives\n%s\nwant\n%s", who, k, got[k], want[k])
		}
	}
}

// TestRowCountReadsCommitted: DB.RowCount is a DB-level read, so it must
// agree with SELECT COUNT(*) on the same DB — an open transaction's deletes
// and inserts show only once it commits — whether the transaction writes
// in place (alone, upgraded by the count itself) or writes versions (a
// reader was registered first).
func TestRowCountReadsCommitted(t *testing.T) {
	for _, versioned := range []bool{false, true} {
		db := NewDB()
		db.MustExec("CREATE TABLE r (id INTEGER, v INTEGER)")
		db.MustExec("INSERT INTO r VALUES (1, 0), (2, 0), (3, 0)")
		var reader *Tx
		if versioned {
			reader = db.Begin()
		}
		count := func(at string, want int) {
			t.Helper()
			rows, err := db.Query("SELECT COUNT(*) FROM r")
			if err != nil {
				t.Fatal(err)
			}
			sel := int(rows.Data[0][0].MustInt())
			if got := db.RowCount("r"); got != want || sel != want {
				t.Fatalf("versioned=%v, %s: RowCount %d, SELECT COUNT(*) %d, want %d", versioned, at, got, sel, want)
			}
		}
		tx := db.Begin()
		if n, err := tx.Exec("DELETE FROM r WHERE id <= 2"); err != nil || n != 2 {
			t.Fatalf("delete: %d, %v", n, err)
		}
		count("before the delete commits", 3)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		count("after the delete commits", 1)
		tx = db.Begin()
		if _, err := tx.Exec("INSERT INTO r VALUES (4, 0)"); err != nil {
			t.Fatal(err)
		}
		count("before the insert commits", 1)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		count("after the insert commits", 2)
		if reader != nil {
			if err := reader.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		count("single-version again", 2)
	}
}
