package relational

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWritesKeepIndexesExact drives random INSERT, DELETE and multi-column
// UPDATE statements — with failures injected mid-statement (a duplicate id,
// a coercion error partway through a SET list, a trigger that fails after
// earlier rows were deleted) — through autocommit, explicit
// transactions that commit or roll back, and a held-open read transaction
// that switches writers to versioned mode and lets vacuum run at its
// close. Transactions run in three modes: under a reader held since before
// they began (versioned throughout), alone (in place throughout), and
// alone until a reader registers at a random statement (in place, then
// upgraded to versions; the reader must see the pre-transaction rows).
// After every statement, commit and rollback, each index must equal
// a rebuild from scratch (checkWritesExact). It runs on a memory DB and on
// a paged DB with a two-page pool, which it also reopens.
func TestWritesKeepIndexesExact(t *testing.T) {
	for _, paged := range []bool{false, true} {
		name := "memory"
		if paged {
			name = "paged"
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(38))
			var db *DB
			var dir string
			opts := pagedOpts()
			opts.PoolPages = 2
			if paged {
				dir = t.TempDir()
				db = mustOpenDB(t, dir, opts)
			} else {
				db = NewDB()
			}
			for _, ddl := range []string{
				"CREATE TABLE w (id INTEGER, parentId INTEGER, a INTEGER, b VARCHAR)",
				"CREATE INDEX wa ON w (a)",
				"CREATE INDEX wb ON w (b)",
				"CREATE ORDERED INDEX wpa ON w (parentId, a)",
				"CREATE ORDERED INDEX wbi ON w (b, id)",
				// The trigger fails a DELETE that reaches a row whose b is
				// not integer text, after the rows before it were deleted.
				"CREATE TABLE gate (n INTEGER)",
				"INSERT INTO gate VALUES (0)",
				"CREATE TRIGGER wdel AFTER DELETE ON w FOR EACH ROW UPDATE gate SET n = OLD.b",
			} {
				db.MustExec(ddl)
			}
			var held *Tx
			failed, rolledBack, upgraded := 0, 0, 0
			for step := 0; step < 400; step++ {
				at := fmt.Sprintf("step %d", step)
				switch {
				case held == nil && r.Intn(12) == 0:
					held = db.Begin()
					if _, err := held.Query("SELECT COUNT(*) FROM w"); err != nil {
						t.Fatalf("%s: held read: %v", at, err)
					}
				case held != nil && r.Intn(10) == 0:
					if err := held.Commit(); err != nil {
						t.Fatalf("%s: closing held transaction: %v", at, err)
					}
					held = nil
				case r.Intn(5) == 0:
					arriveAt, pre := -1, ""
					if held == nil && r.Intn(2) == 0 {
						arriveAt = 1 + r.Intn(3)
						pre = dumpRows(t, queryReader(db.Query), "SELECT id, parentId, a, b FROM w")
					}
					tx := db.Begin()
					for i := 0; i < 1+r.Intn(4); i++ {
						if i == arriveAt {
							held = db.Begin()
							if got := dumpRows(t, queryReader(held.Query), "SELECT id, parentId, a, b FROM w"); got != pre {
								t.Fatalf("%s: reader arriving at statement %d sees\n%s\nwant\n%s", at, i, got, pre)
							}
							upgraded++
							checkWritesExact(t, db, fmt.Sprintf("%s upgraded at statement %d", at, i))
						}
						if _, err := tx.Exec(randomWrite(r)); err != nil {
							failed++
						}
						checkWritesExact(t, db, fmt.Sprintf("%s tx statement %d", at, i))
					}
					if r.Intn(2) == 0 {
						if err := tx.Rollback(); err != nil {
							t.Fatal(err)
						}
						rolledBack++
					} else if err := tx.Commit(); err != nil {
						t.Fatalf("%s: commit: %v", at, err)
					}
				default:
					if _, err := db.Exec(randomWrite(r)); err != nil {
						failed++
					}
				}
				checkWritesExact(t, db, at)
				if paged && held == nil && step%25 == 24 {
					if err := db.Checkpoint(); err != nil {
						t.Fatalf("%s: checkpoint: %v", at, err)
					}
				}
			}
			if held != nil {
				if err := held.Commit(); err != nil {
					t.Fatal(err)
				}
				checkWritesExact(t, db, "held closed")
			}
			if failed == 0 || rolledBack == 0 || upgraded == 0 || db.Stats().VersionsVacuumed == 0 {
				t.Fatalf("workload too tame: %d failed statements, %d rollbacks, %d upgrades, %d versions vacuumed",
					failed, rolledBack, upgraded, db.Stats().VersionsVacuumed)
			}
			if paged {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db = mustOpenDB(t, dir, opts)
				checkWritesExact(t, db, "reopened")
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// randomWrite returns one write statement on w. Ids collide (80 values),
// b holds non-integer text that fails a SET parentId = b coercion (and
// the delete trigger's), and UPDATEs assign several columns, so statements
// fail partway often.
func randomWrite(r *rand.Rand) string {
	bs := []string{"'1'", "'2'", "'x'", "'y'", "NULL"}
	row := func() string {
		return fmt.Sprintf("(%d, %d, %d, %s)", r.Intn(80), r.Intn(6), r.Intn(20), bs[r.Intn(len(bs))])
	}
	p := r.Intn(6)
	switch r.Intn(9) {
	case 0, 1:
		return "INSERT INTO w VALUES " + row()
	case 2:
		return "INSERT INTO w VALUES " + row() + ", " + row() + ", " + row()
	case 3:
		return fmt.Sprintf("DELETE FROM w WHERE parentId = %d OR a = %d", p, r.Intn(20))
	case 4:
		return fmt.Sprintf("DELETE FROM w WHERE id < %d", r.Intn(40))
	case 5:
		return fmt.Sprintf("UPDATE w SET a = a + %d, b = %s WHERE parentId = %d", 1+r.Intn(3), bs[r.Intn(len(bs))], p)
	case 6:
		return fmt.Sprintf("UPDATE w SET a = %d, parentId = b WHERE parentId = %d", r.Intn(20), p)
	case 7:
		return fmt.Sprintf("UPDATE w SET b = %s, id = id + %d WHERE a < %d", bs[r.Intn(len(bs))], 1+r.Intn(5), r.Intn(20))
	default:
		return fmt.Sprintf("UPDATE w SET parentId = %d, a = %d, id = %d WHERE id = %d", p, r.Intn(20), r.Intn(80), r.Intn(80))
	}
}

// checkWritesExact requires, for every table, that each hash bucket set
// and each B+tree's entries for present rows equal a rebuild from those
// rows' versions — the current row plus the chain versions retained for
// snapshots — with every other B+tree entry a tombstone counted in stale;
// that the live and version counts match the rows; and, paged, that the
// directory agrees with slot liveness.
func checkWritesExact(t *testing.T, db *DB, at string) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, tb := range db.tables {
		if pg := tb.pg; pg != nil && len(pg.dir) != len(tb.rows) {
			t.Fatalf("%s: %s: directory covers %d rids, table %d", at, tb.Name, len(pg.dir), len(tb.rows))
		}
		if pg := tb.pg; pg != nil {
			listed := make([]int, len(pg.dir))
			for _, pi := range pg.pages {
				for _, rid := range pi.rids {
					if int(rid) < len(pg.dir) && pg.dir[rid] == pi.id {
						listed[rid]++
					}
				}
			}
			for rid, n := range listed {
				if placed := pg.dir[rid] >= 0; placed && n != 1 || !placed && n != 0 {
					t.Fatalf("%s: %s: rid %d (page %d) is listed %d times by its page", at, tb.Name, rid, pg.dir[rid], n)
				}
			}
		}
		versions := map[int][][]Value{}
		live, vers := 0, 0
		for rid := range tb.rows {
			if pg := tb.pg; pg != nil && tb.rows[rid] != nil && pg.dir[rid] < 0 {
				t.Fatalf("%s: %s: rid %d holds a row but its directory entry is dead", at, tb.Name, rid)
			}
			row := tb.Row(rid)
			if (row != nil) != tb.liveAt(rid) {
				t.Fatalf("%s: %s: rid %d: row present %v, liveAt %v", at, tb.Name, rid, row != nil, tb.liveAt(rid))
			}
			var m rowMeta
			if rid < len(tb.meta) {
				m = tb.meta[rid]
			}
			if m != (rowMeta{}) {
				vers++
			}
			if row == nil {
				if m != (rowMeta{}) {
					t.Fatalf("%s: %s: dead rid %d keeps version metadata %+v", at, tb.Name, rid, m)
				}
				continue
			}
			if m.end == 0 {
				live++
			}
			versions[rid] = versionRows(row, m.older)
		}
		if tb.live != live || tb.vers != vers {
			t.Fatalf("%s: %s: live %d vers %d, rows say %d and %d", at, tb.Name, tb.live, tb.vers, live, vers)
		}
		type hashEntry struct {
			key Value
			rid int
		}
		for name, idx := range tb.index {
			want := map[hashEntry]bool{}
			for rid, vs := range versions {
				for _, v := range vs {
					if x := v[idx.col]; !x.IsNull() {
						want[hashEntry{x.joinKey(), rid}] = true
					}
				}
			}
			for k, rids := range idx.entries {
				if len(rids) == 0 {
					t.Fatalf("%s: %s index %s keeps an empty bucket %v", at, tb.Name, name, k)
				}
				for _, rid := range rids {
					e := hashEntry{k, rid}
					if !want[e] {
						t.Fatalf("%s: %s index %s holds an extra or duplicate entry %v→%d", at, tb.Name, name, k, rid)
					}
					delete(want, e)
				}
			}
			for e := range want {
				t.Fatalf("%s: %s index %s lacks entry %v→%d", at, tb.Name, name, e.key, e.rid)
			}
		}
		for _, oidx := range tb.orderedList {
			want := map[bkey]bool{}
			for rid, vs := range versions {
				for _, v := range vs {
					want[oidx.keyFor(rid, v)] = true
				}
			}
			entries, tombstones := 0, 0
			for c := oidx.tree.min(); ; c.advance() {
				k, ok := c.entry()
				if !ok {
					break
				}
				entries++
				if !tb.liveAt(k.rid) {
					tombstones++
					continue
				}
				if !want[k] {
					t.Fatalf("%s: %s tree %s holds an extra or duplicate entry %v", at, tb.Name, oidx.name, k)
				}
				delete(want, k)
			}
			for k := range want {
				t.Fatalf("%s: %s tree %s lacks entry %v", at, tb.Name, oidx.name, k)
			}
			if tombstones != oidx.stale || entries != oidx.tree.size {
				t.Fatalf("%s: %s tree %s: %d tombstones (stale %d), %d entries (size %d)",
					at, tb.Name, oidx.name, tombstones, oidx.stale, entries, oidx.tree.size)
			}
		}
	}
}
