package relational

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadersWithWriter races N document-order reader goroutines
// against a writer doing pos-renumber updates, failing statements, and
// explicit rollbacks. Because readers see only committed versions (mvcc.go)
// and every committed state in this workload equals the seed state, each
// read must observe exactly the seed multiset — a torn
// statement or a lost undo shows up as a wrong row count or wrong pos sum.
// Run under -race this also proves the lock discipline over the stats
// counters, the shape cache, and the AST plan caches.
func TestConcurrentReadersWithWriter(t *testing.T) {
	const (
		parents = 8
		perPar  = 25
		rows    = parents * perPar
		readers = 4
		cycles  = 120
	)
	db := NewDB()
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, pos INTEGER, name VARCHAR(64))")
	db.MustExec("CREATE ORDERED INDEX ip ON item (parentId, pos)")
	wantPosSum := int64(0)
	for i := 0; i < rows; i++ {
		pos := i % perPar
		wantPosSum += int64(pos)
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, %d, 'n%d')", i+1, i/perPar, pos, i+1))
	}
	before := dbDump(db)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers+1)

	// Writer: every committed state equals the seed state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < cycles; i++ {
			par := i % parents
			// Explicit transaction, rolled back: pos-renumber plus a delete.
			tx := db.Begin()
			if _, err := tx.Exec(fmt.Sprintf("UPDATE item SET pos = pos + 1000 WHERE parentId = %d", par)); err != nil {
				errs <- err
				tx.Rollback()
				return
			}
			if _, err := tx.Exec(fmt.Sprintf("DELETE FROM item WHERE parentId = %d AND pos >= 1010", par)); err != nil {
				errs <- err
				tx.Rollback()
				return
			}
			if err := tx.Rollback(); err != nil {
				errs <- err
				return
			}
			// Implicit statement transaction, failing mid-statement: the
			// shift collides with an existing id after moving earlier rows.
			if _, err := db.Exec("UPDATE item SET id = id + 1"); err == nil {
				errs <- fmt.Errorf("expected unique violation")
				return
			}
			// Committed transaction whose net effect is zero.
			tx = db.Begin()
			if _, err := tx.Exec(fmt.Sprintf("UPDATE item SET pos = pos + 500 WHERE parentId = %d", par)); err != nil {
				errs <- err
				tx.Rollback()
				return
			}
			if _, err := tx.Exec(fmt.Sprintf("UPDATE item SET pos = pos - 500 WHERE parentId = %d", par)); err != nil {
				errs <- err
				tx.Rollback()
				return
			}
			if err := tx.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Readers: streaming document-order scans; every observed version must
	// be the seed multiset, in (parentId, pos) order.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, posSum := 0, int64(0)
				lastPar, lastPos := int64(-1), int64(-1)
				_, err := db.QueryEach("SELECT parentId, pos FROM item ORDER BY parentId, pos", func(row []Value) error {
					par, pos := row[0].MustInt(), row[1].MustInt()
					if par < lastPar || (par == lastPar && pos < lastPos) {
						return fmt.Errorf("out of order: (%d,%d) after (%d,%d)", par, pos, lastPar, lastPos)
					}
					lastPar, lastPos = par, pos
					n++
					posSum += pos
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if n != rows || posSum != wantPosSum {
					errs <- fmt.Errorf("reader observed uncommitted state: %d rows (want %d), pos sum %d (want %d)",
						n, rows, posSum, wantPosSum)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := dbDump(db); got != before {
		t.Errorf("state drifted across the stress run:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
	// Snapshot/Restore still round-trips after the transaction history.
	snap := db.Snapshot()
	db.MustExec("DELETE FROM item WHERE parentId = 0")
	mustRestore(t, db, snap)
	if got := dbDump(db); got != before {
		t.Errorf("Snapshot/Restore after stress run:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}

// TestConcurrentReadersOnly: pure readers scale without tripping the race
// detector over the plan caches and stats (regression guard for the shared
// shape-cached AST).
func TestConcurrentReadersOnly(t *testing.T) {
	db := txnTestDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rows, err := db.Query("SELECT id, pos FROM item WHERE parentId = 2 ORDER BY pos")
				if err != nil {
					errs <- err
					return
				}
				if len(rows.Data) != 5 {
					errs <- fmt.Errorf("got %d rows, want 5", len(rows.Data))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
