package relational

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// mvccSeedDB builds the oracle-stress schema: 100 base rows plus one
// "marker" row whose id encodes the committed generation. Every committed
// state k is fully determined: base ids 1..100 and marker id 1000+k, all
// with val = k.
const (
	mvccBaseRows = 100
	mvccMarker   = 1000
)

func mvccSeedDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec("CREATE TABLE acct (id INTEGER, val INTEGER)")
	db.MustExec("CREATE ORDERED INDEX acct_id ON acct (id)")
	for i := 1; i <= mvccBaseRows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO acct VALUES (%d, 0)", i))
	}
	db.MustExec(fmt.Sprintf("INSERT INTO acct VALUES (%d, 0)", mvccMarker))
	return db
}

// mvccCommitGen advances the database from committed generation k-1 to k in
// one transaction: rewrite every row's val (split across two statements so
// an interleaved reader would observe a torn state if isolation broke),
// insert the new marker, delete the old one.
func mvccCommitGen(db *DB, k int) error {
	tx := db.Begin()
	mid := mvccBaseRows / 2
	stmts := []string{
		fmt.Sprintf("UPDATE acct SET val = %d WHERE id <= %d", k, mid),
		fmt.Sprintf("UPDATE acct SET val = %d WHERE id > %d", k, mid),
		fmt.Sprintf("INSERT INTO acct VALUES (%d, %d)", mvccMarker+k, k),
		fmt.Sprintf("DELETE FROM acct WHERE id = %d", mvccMarker+k-1),
	}
	for _, s := range stmts {
		if _, err := tx.Exec(s); err != nil {
			tx.Rollback()
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	return tx.Commit()
}

// checkMvccState verifies an observed ordered result set reconstructs some
// committed generation exactly, and returns that generation.
func checkMvccState(rows *Rows) (int, error) {
	if n := len(rows.Data); n != mvccBaseRows+1 {
		return 0, fmt.Errorf("observed %d rows, want %d", n, mvccBaseRows+1)
	}
	last := rows.Data[len(rows.Data)-1]
	k := int(last[1].MustInt())
	wantMarker := int64(mvccMarker + k)
	if last[0].MustInt() != wantMarker {
		return 0, fmt.Errorf("marker id %d does not match generation %d", last[0].MustInt(), k)
	}
	prev := int64(0)
	for i, row := range rows.Data {
		id, val := row[0].MustInt(), row[1].MustInt()
		if id <= prev {
			return 0, fmt.Errorf("ids out of order at %d: %d after %d", i, id, prev)
		}
		prev = id
		if i < mvccBaseRows && id != int64(i+1) {
			return 0, fmt.Errorf("base id drifted at %d: got %d", i, id)
		}
		if val != int64(k) {
			return 0, fmt.Errorf("torn state: row id=%d has val=%d, generation %d", id, val, k)
		}
	}
	return k, nil
}

// TestMVCCSnapshotOracle stresses N readers against a live, continuously
// committing writer. Every observed result set must equal the full
// reconstruction at some committed generation — never a torn mix of two —
// and generations must advance monotonically per reader.
func TestMVCCSnapshotOracle(t *testing.T) {
	const (
		readers = 4
		cycles  = 150
	)
	db := mvccSeedDB(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for k := 1; k <= cycles; k++ {
			if err := mvccCommitGen(db, k); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastK := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := db.Query("SELECT id, val FROM acct ORDER BY id")
				if err != nil {
					errs <- err
					return
				}
				k, err := checkMvccState(rows)
				if err != nil {
					errs <- err
					return
				}
				if k < lastK {
					errs <- fmt.Errorf("snapshot went backwards: %d after %d", k, lastK)
					return
				}
				lastK = k
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Final state is the last committed generation.
	rows, err := db.Query("SELECT id, val FROM acct ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	k, err := checkMvccState(rows)
	if err != nil {
		t.Fatal(err)
	}
	if k != cycles {
		t.Errorf("final generation %d, want %d", k, cycles)
	}
}

// TestReaderNotBlockedByOpenTransaction pins the point of the whole design:
// a reader completes (bounded latency) while a write transaction is open,
// and sees the pre-transaction state.
func TestReaderNotBlockedByOpenTransaction(t *testing.T) {
	db := mvccSeedDB(t)
	if err := mvccCommitGen(db, 1); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Exec("UPDATE acct SET val = 99"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(fmt.Sprintf("DELETE FROM acct WHERE id = %d", mvccBaseRows)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		rows, err := db.Query("SELECT id, val FROM acct ORDER BY id")
		if err != nil {
			done <- err
			return
		}
		k, err := checkMvccState(rows)
		if err == nil && k != 1 {
			err = fmt.Errorf("reader saw generation %d during open transaction, want 1", k)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader blocked behind an open write transaction")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT id, val FROM acct ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if k, err := checkMvccState(rows); err != nil || k != 1 {
		t.Errorf("state after rollback: generation %d, err %v", k, err)
	}
}

// TestFirstCommitterWins covers both conflict detections: an intent held by
// a concurrent transaction, and a commit that landed after the loser's
// snapshot. The loser aborts cleanly; the final state carries only the
// winner's write.
func TestFirstCommitterWins(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE kv (k INTEGER, v INTEGER)")
	db.MustExec("INSERT INTO kv VALUES (1, 10)")
	db.MustExec("INSERT INTO kv VALUES (2, 20)")

	// Intent collision: tx2 touches a table tx1 has written.
	tx1 := db.Begin()
	tx2 := db.Begin()
	if _, err := tx1.Exec("UPDATE kv SET v = 11 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec("UPDATE kv SET v = 22 WHERE k = 2"); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("overlapping writer got %v, want ErrWriteConflict", err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][1].MustInt() != 11 || rows.Data[1][1].MustInt() != 20 {
		t.Errorf("final state %v, want winner-only (11, 20)", rows.Data)
	}

	// Stale snapshot: tx3 began before tx4's commit, so its later write to
	// the same table loses even though no intent is held anymore.
	tx3 := db.Begin()
	tx4 := db.Begin()
	if _, err := tx4.Exec("UPDATE kv SET v = 40 WHERE k = 2"); err != nil {
		t.Fatal(err)
	}
	if err := tx4.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Exec("UPDATE kv SET v = 30 WHERE k = 1"); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale-snapshot writer got %v, want ErrWriteConflict", err)
	}
	if err := tx3.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().WriteConflicts; got < 2 {
		t.Errorf("WriteConflicts = %d, want >= 2", got)
	}
	rows, err = db.Query("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][1].MustInt() != 11 || rows.Data[1][1].MustInt() != 40 {
		t.Errorf("final state %v, want (11, 40)", rows.Data)
	}
}

// TestAutocommitWaitsForIntent: an autocommit statement colliding with an
// open transaction's intent parks until the intent releases, then applies
// on top of the committed state instead of failing.
func TestAutocommitWaitsForIntent(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE kv (k INTEGER, v INTEGER)")
	db.MustExec("INSERT INTO kv VALUES (1, 10)")
	tx := db.Begin()
	if _, err := tx.Exec("UPDATE kv SET v = 20 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("UPDATE kv SET v = v + 1 WHERE k = 1")
		done <- err
	}()
	// The autocommit writer must still be parked while the intent is held.
	select {
	case err := <-done:
		t.Fatalf("autocommit write finished during open transaction (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("autocommit write never unparked")
	}
	rows, err := db.Query("SELECT v FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].MustInt(); got != 21 {
		t.Errorf("v = %d, want 21 (committed 20, then +1)", got)
	}
}

// TestSingleVersionStatsAndVacuum pins the fast-path invariants: queries
// against tables that were never written under a registered snapshot report
// zero chain hops and zero snapshots; a commit with no live readers
// vacuums its superseded versions back to single-version state.
func TestSingleVersionStatsAndVacuum(t *testing.T) {
	db := mvccSeedDB(t)
	db.ResetStats()
	for i := 0; i < 5; i++ {
		for _, q := range []string{"SELECT id, val FROM acct ORDER BY id", "SELECT COUNT(*) FROM acct WHERE id > 10"} {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Stats()
	if st.VersionChainHops != 0 {
		t.Errorf("single-version reads walked %d chain hops, want 0", st.VersionChainHops)
	}
	if st.SnapshotsTaken != 0 {
		t.Errorf("autocommit-only workload took %d snapshots, want 0", st.SnapshotsTaken)
	}

	// One committed transaction with no concurrent readers: versions are
	// reclaimed at commit and the table returns to single-version state.
	if err := mvccCommitGen(db, 1); err != nil {
		t.Fatal(err)
	}
	st = db.Stats()
	if st.SnapshotsTaken != 1 {
		t.Errorf("SnapshotsTaken = %d, want 1", st.SnapshotsTaken)
	}
	if st.VersionsVacuumed == 0 {
		t.Error("commit with no live snapshots vacuumed nothing")
	}
	if tab := db.Table("acct"); tab.vers != 0 {
		t.Errorf("table still versioned after vacuum: vers = %d", tab.vers)
	}
	// And the fast path is back: fresh reads still walk no chains.
	db.ResetStats()
	if _, err := db.Query("SELECT id, val FROM acct ORDER BY id"); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.VersionChainHops != 0 {
		t.Errorf("post-vacuum reads walked %d chain hops, want 0", st.VersionChainHops)
	}
}
