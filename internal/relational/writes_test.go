package relational

import (
	"errors"
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
// Transactions that create a table and drop w roll back, and on the memory
// DB a Restore resets w to an earlier snapshot (refused while the reader
// is held). After every statement, commit, rollback and restore, each
// index must equal a rebuild from scratch (checkWritesExact). It runs on a
// memory DB and on a paged DB with a two-page pool, which it also reopens.
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
			var snap *DBSnapshot
			failed, rolledBack, upgraded, restored, ddlUndone := 0, 0, 0, 0, 0
			for step := 0; step < 400; step++ {
				at := fmt.Sprintf("step %d", step)
				switch {
				case !paged && r.Intn(25) == 0:
					// Memory only: Restore rebuilds every index from the
					// snapshot's rows, and refuses while a transaction is
					// open.
					switch {
					case snap == nil:
						snap = db.Snapshot()
					case held != nil:
						if err := db.Restore(snap); !errors.Is(err, errRestoreOpenTxn) {
							t.Fatalf("%s: Restore beside an open transaction: err = %v", at, err)
						}
					default:
						if err := db.Restore(snap); err != nil {
							t.Fatalf("%s: Restore: %v", at, err)
						}
						snap = nil
						restored++
					}
				case r.Intn(25) == 0:
					// DDL rolled back: a dropped table comes back with its
					// rows and indexes, a created one goes away.
					tx := db.Begin()
					for _, ddl := range []string{
						"CREATE TABLE wx (id INTEGER, parentId INTEGER)",
						"INSERT INTO wx VALUES (1, 0)",
						"DROP TABLE w",
					} {
						if _, err := tx.Exec(ddl); err != nil {
							t.Fatalf("%s: %s: %v", at, ddl, err)
						}
					}
					if err := tx.Rollback(); err != nil {
						t.Fatal(err)
					}
					if db.table("wx") != nil || db.table("w") == nil {
						t.Fatalf("%s: rolled-back DDL left wx=%v w=%v", at, db.table("wx") != nil, db.table("w") != nil)
					}
					ddlUndone++
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
			if failed == 0 || rolledBack == 0 || upgraded == 0 || db.Stats().VersionsVacuumed == 0 || ddlUndone == 0 || !paged && restored == 0 {
				t.Fatalf("workload too tame: %d failed statements, %d rollbacks, %d upgrades, %d versions vacuumed, %d DDL rollbacks, %d restores",
					failed, rolledBack, upgraded, db.Stats().VersionsVacuumed, ddlUndone, restored)
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
			entries, err := ridMapContents(&idx.rids)
			if err != nil {
				t.Fatalf("%s: %s index %s: %v", at, tb.Name, name, err)
			}
			for k, rids := range entries {
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

// TestHashIndexRemoveKeepsOrder empties one 2,560-row hash bucket — the
// shape of the ASR's c0 column, whose single value every path of the bulk
// document shares — by DELETE statements inside transactions: every other
// row, then the rest, with a rollback in between and at the end. After
// every step a probe, read from the index and through SQL, must list the
// surviving rows in insertion order, which is ascending rowid order (the
// rows are inserted into an empty table); after each rollback it must list
// exactly the original rows in that order. It runs on a memory DB and on a
// paged DB with a two-page pool.
func TestHashIndexRemoveKeepsOrder(t *testing.T) {
	const n = 2560
	for _, paged := range []bool{false, true} {
		name := "memory"
		if paged {
			name = "paged"
		}
		t.Run(name, func(t *testing.T) {
			db := NewDB()
			if paged {
				opts := pagedOpts()
				opts.PoolPages = 2
				db = mustOpenDB(t, t.TempDir(), opts)
			}
			defer db.Close()
			db.MustExec("CREATE TABLE asr (id INTEGER, c0 INTEGER, odd INTEGER)")
			db.MustExec("CREATE INDEX asr_c0 ON asr (c0)")
			rows := make([][]Value, n)
			for i := range rows {
				rows[i] = []Value{Int(int64(i)), Int(1), Int(int64(i % 2))}
			}
			if err := db.BulkLoad(map[string][][]Value{"asr": rows}); err != nil {
				t.Fatal(err)
			}
			ids := func(odd, even bool) []int {
				var out []int
				for i := 0; i < n; i++ {
					if i%2 == 1 && odd || i%2 == 0 && even {
						out = append(out, i)
					}
				}
				return out
			}
			all, odds := ids(true, true), ids(true, false)
			// check reads the bucket straight from the index (the rowid is
			// the id) and through an index-probing query in s.
			check := func(at string, s Session, want []int) {
				t.Helper()
				db.mu.RLock()
				var one [1]int
				got := appendLive(nil, db.tables["asr"].lookupIndex("c0").probe(Int(1), &one))
				db.mu.RUnlock()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: bucket lists %d rids %.60v…, want %d %.60v…", at, len(got), fmt.Sprint(got), len(want), fmt.Sprint(want))
				}
				var sql []int
				if _, err := s.QueryEach("SELECT id FROM asr WHERE c0 = 1", func(r []Value) error {
					sql = append(sql, int(r[0].MustInt()))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(sql) != fmt.Sprint(want) {
					t.Fatalf("%s: probe query returns %d rows %.60v…, want %d", at, len(sql), fmt.Sprint(sql), len(want))
				}
				checkWritesExact(t, db, at)
			}
			deleteIn := func(tx *Tx, sql string, want int) {
				t.Helper()
				if got, err := tx.Exec(sql); err != nil || got != want {
					t.Fatalf("%s: %d rows, %v; want %d", sql, got, err, want)
				}
			}
			check("loaded", db, all)
			tx := db.Begin()
			deleteIn(tx, "DELETE FROM asr WHERE c0 = 1 AND odd = 0", n/2)
			check("every other row deleted", tx, odds)
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			check("first rollback", db, all)
			tx = db.Begin()
			deleteIn(tx, "DELETE FROM asr WHERE c0 = 1 AND odd = 0", n/2)
			check("every other row deleted again", tx, odds)
			deleteIn(tx, "DELETE FROM asr WHERE c0 = 1", n/2)
			check("the rest deleted", tx, nil)
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			check("second rollback", db, all)
		})
	}
}
