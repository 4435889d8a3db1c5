package relational

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// copyDBDir copies a DB directory as a crash leaves it: whatever its files
// hold now, with the DB still open (the OS cache included, so it proves
// recovery of every acknowledged commit, not power-loss durability).
func copyDBDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			t.Fatalf("unexpected non-file %s in a DB directory", e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestReopenAfterEveryMutator is the reopen oracle for a directory DB:
// after each exported mutator — Exec (rows and DDL, failing statements
// too), a Tx that commits, a Tx that rolls back, BulkLoad, Checkpoint,
// Close, and a refused Restore — a kill-style copy reopened and the
// directory itself reopened after Close must both hold exactly the
// acknowledged state. The run goes on from the reopened DB, so later steps
// recover from a checkpoint plus a log tail.
func TestReopenAfterEveryMutator(t *testing.T) {
	dir := t.TempDir()
	opts := pagedOpts()
	db := mustOpenDB(t, dir, opts)
	next := 1
	insert := func(n int) string {
		s := "INSERT INTO item VALUES "
		for i := 0; i < n; i++ {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("(%d, %d, 'n%d')", next, next%4, next)
			next++
		}
		return s
	}
	exec := func(t *testing.T, run func(string, ...Value) (int, error), sqls ...string) {
		t.Helper()
		for _, sql := range sqls {
			if _, err := run(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	steps := []struct {
		name string
		run  func(t *testing.T, db *DB) *DB
	}{
		{"exec", func(t *testing.T, db *DB) *DB {
			exec(t, db.Exec,
				"CREATE TABLE item (id INTEGER, parentId INTEGER, name VARCHAR(64))",
				"CREATE ORDERED INDEX ip ON item (parentId, id)",
				insert(30),
				"DELETE FROM item WHERE id IN (7, 14, 21, 28)",
				"UPDATE item SET name = 'u', parentId = parentId + 1 WHERE id IN (5, 10, 15, 20, 25)",
				"CREATE TABLE scratch (k INTEGER)",
				"INSERT INTO scratch VALUES (1), (2)",
				"DROP TABLE scratch",
			)
			if _, err := db.Exec("INSERT INTO item VALUES (1, 0, 'dup')"); err == nil {
				t.Fatal("duplicate id accepted")
			}
			return db
		}},
		{"tx commit", func(t *testing.T, db *DB) *DB {
			tx := db.Begin()
			exec(t, tx.Exec,
				insert(5),
				"DELETE FROM item WHERE parentId = 2",
				"UPDATE item SET name = 'tx' WHERE id < 10",
				"CREATE TABLE side (k INTEGER)",
				"INSERT INTO side VALUES (7)",
				"CREATE INDEX iname ON item (name)",
			)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"tx rollback", func(t *testing.T, db *DB) *DB {
			tx := db.Begin()
			exec(t, tx.Exec,
				insert(5),
				"DELETE FROM item WHERE parentId = 1",
				"UPDATE item SET name = 'gone' WHERE id > 3",
				"DROP TABLE side",
				"CREATE TABLE never (k INTEGER)",
			)
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"bulk load", func(t *testing.T, db *DB) *DB {
			var rows [][]Value
			for i := 0; i < 40; i++ {
				rows = append(rows, []Value{Int(int64(next)), Int(int64(next % 4)), Text("bulk")})
				next++
			}
			if err := db.BulkLoad(map[string][][]Value{"item": rows, "side": {{Int(8)}}}); err != nil {
				t.Fatal(err)
			}
			exec(t, db.Exec, "DELETE FROM item WHERE id > 60 AND id < 70")
			return db
		}},
		{"checkpoint", func(t *testing.T, db *DB) *DB {
			exec(t, db.Exec, insert(3), "UPDATE item SET name = 'pre-ckpt' WHERE parentId = 0")
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			exec(t, db.Exec, "DELETE FROM item WHERE parentId = 3", insert(2))
			return db
		}},
		{"close", func(t *testing.T, db *DB) *DB {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			return mustOpenDB(t, dir, opts)
		}},
		{"refused restore", func(t *testing.T, db *DB) *DB {
			snap := db.Snapshot()
			exec(t, db.Exec, insert(2), "DELETE FROM item WHERE id = 2")
			if err := db.Restore(snap); err == nil {
				t.Fatal("Restore on a directory DB succeeded")
			}
			return db
		}},
	}
	for _, st := range steps {
		db = st.run(t, db)
		want := dbDump(db)
		at := "after " + st.name
		killed := copyDBDir(t, dir)
		if err := db.Close(); err != nil {
			t.Fatalf("%s: Close: %v", at, err)
		}
		for _, d := range []string{killed, dir} {
			db = mustOpenDB(t, d, opts)
			if got := dbDump(db); got != want {
				t.Fatalf("%s: reopening %s gives other rows than were acknowledged:\n got:\n%s\nwant:\n%s", at, d, got, want)
			}
			if d == killed {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
