package relational

import (
	"fmt"
	"strings"
	"testing"
)

// checkUndoLog holds the chunked undo log to its layout: n entries, the
// first min(n, undoHead) inline and the rest in chunks; chunk k sized
// min(undoHead<<k, undoChunk); every chunk full but the last, which is not
// empty; and every slot past the last entry zero, so a popped entry keeps
// no pre-image alive.
func checkUndoLog(t *testing.T, l *undoLog, at string) {
	t.Helper()
	held := min(l.n, undoHead)
	for i := held; i < undoHead; i++ {
		if !zeroEntry(&l.head[i]) {
			t.Fatalf("%s: head slot %d past %d entries is not zero", at, i, l.n)
		}
	}
	if (l.n > undoHead) != (len(l.chunks) > 0) {
		t.Fatalf("%s: %d entries in %d chunks", at, l.n, len(l.chunks))
	}
	for k, c := range l.chunks {
		if want := min(undoHead<<k, undoChunk); cap(c) != want {
			t.Fatalf("%s: chunk %d has capacity %d, want %d", at, k, cap(c), want)
		}
		last := k == len(l.chunks)-1
		if !last && len(c) != cap(c) || last && len(c) == 0 {
			t.Fatalf("%s: chunk %d of %d holds %d of %d", at, k, len(l.chunks), len(c), cap(c))
		}
		for i := len(c); i < cap(c); i++ {
			if !zeroEntry(&c[:cap(c)][i]) {
				t.Fatalf("%s: chunk %d slot %d past its %d entries is not zero", at, k, i, len(c))
			}
		}
		held += len(c)
	}
	if held != l.n {
		t.Fatalf("%s: segments hold %d entries, n = %d", at, held, l.n)
	}
}

func zeroEntry(e *undoEntry) bool {
	return e.kind == 0 && e.t == nil && e.rid == 0 && e.row == nil && e.fn == nil && e.v == nil
}

// chunkDB builds the tables of the chunk-boundary tests: p (ids 0..n-1
// and 2n-1, an ordered index besides the automatic ones); gone, one row
// per p row i, which a per-row delete trigger on p renumbers to id i,
// plus a row holding id n-1, so that the trigger fails on the last row of
// a delete of p's first n rows; and s, an unindexed source whose rows
// k = n..2n-2 are fresh p ids and whose last row (tail = 1) duplicates p's
// id 0.
func chunkDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	for _, ddl := range []string{
		"CREATE TABLE p (id INTEGER, parentId INTEGER, v INTEGER)",
		"CREATE ORDERED INDEX ppv ON p (parentId, v)",
		"CREATE TABLE gone (id INTEGER, parentId INTEGER)",
		"CREATE TRIGGER logdel AFTER DELETE ON p FOR EACH ROW UPDATE gone SET id = OLD.id WHERE parentId = OLD.id",
		"CREATE TABLE s (k INTEGER, tail INTEGER)",
	} {
		db.MustExec(ddl)
	}
	var p, g, s strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			p.WriteString(", ")
			g.WriteString(", ")
			s.WriteString(", ")
		}
		fmt.Fprintf(&p, "(%d, %d, %d)", i, i%5, i%7)
		fmt.Fprintf(&g, "(%d, %d)", 10*n+i, i)
		if i < n-1 {
			fmt.Fprintf(&s, "(%d, 0)", n+i)
		} else {
			s.WriteString("(0, 1)")
		}
	}
	fmt.Fprintf(&p, ", (%d, 0, 0)", 2*n-1)
	db.MustExec("INSERT INTO p VALUES " + p.String())
	db.MustExec("INSERT INTO s VALUES " + s.String())
	fmt.Fprintf(&g, ", (%d, -1)", n-1)
	db.MustExec("INSERT INTO gone VALUES " + g.String())
	return db
}

// TestChunkBoundaryRollback runs three writers that fail on their last
// row after logging thousands of undo entries — more than three chunks
// past the inline head — and requires the failed statement to leave no
// trace: every table, index and live count equal to the state before it
// (dbDump, checkWritesExact). Each runs as an autocommit statement and
// inside a lone transaction whose earlier writes put the statement's mark
// mid-chunk; there the log must be back at the mark with its popped slots
// zeroed, and the transaction must still commit.
func TestChunkBoundaryRollback(t *testing.T) {
	const n = 2500
	writers := []struct {
		name, sql string
		args      []Value
	}{
		// n deletes, then n-1 trigger updates before the last one fails:
		// this is also delete undo reached from a failing statement.
		{"delete with failing row trigger", "DELETE FROM p WHERE id < ?", []Value{Int(n)}},
		// Row i moves to the free id n+i, until the last, n-1, lands on
		// 2n-1.
		{"update with unique violation", "UPDATE p SET id = id + ?, v = v + 1 WHERE id < ?", []Value{Int(n), Int(n)}},
		// n-1 fresh rows, then s's tail row duplicates id 0.
		{"insert select with duplicate", "INSERT INTO p SELECT k, tail, k FROM s ORDER BY tail, k", nil},
	}
	for _, w := range writers {
		for _, inTx := range []bool{false, true} {
			name := w.name + "/autocommit"
			if inTx {
				name = w.name + "/transaction"
			}
			t.Run(name, func(t *testing.T) {
				db := chunkDB(t, n)
				var tx *Tx
				exec := db.Exec
				if inTx {
					tx = db.Begin()
					exec = tx.Exec
					// 37 entries: the mark falls inside the second chunk.
					for i := 0; i < 37; i++ {
						if _, err := tx.Exec("UPDATE p SET v = v + 1 WHERE id = ?", Int(int64(100+i))); err != nil {
							t.Fatal(err)
						}
					}
					checkUndoLog(t, tx.log, "before")
				}
				before := dbDump(db)
				checkWritesExact(t, db, "before")
				if _, err := exec(w.sql, w.args...); err == nil || !strings.Contains(err.Error(), "duplicate value") {
					t.Fatalf("%s: err = %v, want a duplicate on its last row", w.sql, err)
				}
				if got := dbDump(db); got != before {
					t.Fatalf("state changed across the failed statement:\n--- before ---\n%s--- after ---\n%s", before, got)
				}
				checkWritesExact(t, db, "after")
				if tx == nil {
					return
				}
				if tx.log.n != 37 {
					t.Fatalf("log holds %d entries after the failed statement, want its mark 37", tx.log.n)
				}
				checkUndoLog(t, tx.log, "after")
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if got := dbDump(db); got != before {
					t.Fatalf("commit changed the state:\n--- before ---\n%s--- after ---\n%s", before, got)
				}
				checkWritesExact(t, db, "committed")
			})
		}
	}
}

// TestUndoMarksAtChunkBoundaries places statement marks inside one lone
// transaction exactly at the inline head's size, at the chunk boundaries
// 1,024·k and one either side of each, and after each runs two INSERT …
// SELECTs that fail on their last row: a short one and one that crosses
// more than a full chunk. Each failure must pop exactly back to the mark —
// state, indexes and log layout — and the transaction must then roll back
// to its start or commit its successful statements.
func TestUndoMarksAtChunkBoundaries(t *testing.T) {
	var marks []int
	for _, b := range []int{undoHead, undoChunk, 2 * undoChunk, 3 * undoChunk} {
		marks = append(marks, b-1, b, b+1)
	}
	last := marks[len(marks)-1]
	for _, commit := range []bool{false, true} {
		db := NewDB()
		db.MustExec("CREATE TABLE t (id INTEGER, parentId INTEGER, v INTEGER)")
		db.MustExec("CREATE ORDERED INDEX tpv ON t (parentId, v)")
		db.MustExec("CREATE TABLE s (k INTEGER, tail INTEGER)")
		db.MustExec("INSERT INTO t VALUES (-1, 0, 0)")
		var src strings.Builder
		for k := 0; k < last+2*undoChunk; k++ {
			fmt.Fprintf(&src, "(%d, 0), ", k)
		}
		src.WriteString("(-1, 1)")
		db.MustExec("INSERT INTO s VALUES " + src.String())
		start := dbDump(db)

		const fill = "INSERT INTO t SELECT k, tail, k FROM s WHERE k >= ? AND k < ?"
		const fail = fill + " OR tail = 1 ORDER BY tail, k"
		tx := db.Begin()
		for _, mark := range marks {
			if _, err := tx.Exec(fill, Int(int64(tx.log.n)), Int(int64(mark))); err != nil {
				t.Fatal(err)
			}
			if tx.log.n != mark {
				t.Fatalf("log holds %d entries, want %d", tx.log.n, mark)
			}
			before := dbDump(db)
			for _, rows := range []int{3, undoChunk + 100} {
				at := fmt.Sprintf("mark %d, %d rows", mark, rows)
				if _, err := tx.Exec(fail, Int(int64(mark)), Int(int64(mark+rows))); err == nil {
					t.Fatalf("%s: duplicate id accepted", at)
				}
				if tx.log.n != mark {
					t.Fatalf("%s: log holds %d entries after the failure, want %d", at, tx.log.n, mark)
				}
				checkUndoLog(t, tx.log, at)
				if got := dbDump(db); got != before {
					t.Fatalf("%s: state changed across the failed statement:\n--- before ---\n%s--- after ---\n%s", at, before, got)
				}
				checkWritesExact(t, db, at)
			}
		}
		end := dbDump(db)
		want := start
		if commit {
			want = end
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		checkUndoLog(t, tx.log, "ended")
		if tx.log.n != 0 {
			t.Fatalf("ended log holds %d entries", tx.log.n)
		}
		if got := dbDump(db); got != want {
			t.Fatalf("commit=%v: end state differs:\n--- got ---\n%s--- want ---\n%s", commit, got, want)
		}
		checkWritesExact(t, db, "ended")
	}
}
