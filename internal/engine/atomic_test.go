package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/xmltree"
)

// storeDump renders the store's observable state: every data table's rows
// in id order plus the tuple count and id counter. Equal dumps mean a
// failed update left no trace.
func storeDump(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "tuples=%d nextID=%d\n", s.TupleCount(), s.NextID())
	for _, name := range s.DB.TableNames() {
		rows, err := s.DB.Query(fmt.Sprintf("SELECT * FROM %s", name))
		if err != nil {
			t.Fatalf("dump %s: %v", name, err)
		}
		lines := make([]string, 0, len(rows.Data))
		for _, r := range rows.Data {
			var l strings.Builder
			for _, v := range r {
				fmt.Fprintf(&l, " %v", v)
			}
			lines = append(lines, l.String())
		}
		// Sorted in Go: the ASR table has no id column to order by.
		sort.Strings(lines)
		fmt.Fprintf(&b, "== %s ==\n%s\n", name, strings.Join(lines, "\n"))
	}
	return b.String()
}

// TestFailedSubOperationRollsBackUpdate is the engine-level partial-mutation
// regression test: an Example-8-style statement whose later sub-operation
// fails at execution time (an inlined insert over existing content — only
// detectable when it runs) must leave the store's tuple count, every table,
// and the id counter exactly as they were, instead of stranding the earlier
// sub-operations' effects.
func TestFailedSubOperationRollsBackUpdate(t *testing.T) {
	for _, m := range allDeleteMethods {
		s := openCust(t, Options{Delete: m})
		before := storeDump(t, s)
		// Sub-op 1 deletes every order (succeeds); sub-op 2 inserts a Name
		// element, which fails at execution time because every customer
		// already has one (occurs at most once in the DTD).
		_, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer, $o IN $c/Order
UPDATE $c {
    DELETE $o,
    INSERT <Name>Zed</Name>
}`)
		if err == nil {
			t.Fatalf("%v: expected execution-phase failure", m)
		}
		if !strings.Contains(err.Error(), "existing") {
			t.Fatalf("%v: unexpected error: %v", m, err)
		}
		if got := storeDump(t, s); got != before {
			t.Errorf("%v: store changed across failed update:\n--- before ---\n%s--- after ---\n%s", m, before, got)
		}
		// The store still functions: the delete alone succeeds.
		if _, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer, $o IN $c/Order
UPDATE $c { DELETE $o }`); err != nil {
			t.Fatalf("%v: follow-up update: %v", m, err)
		}
	}
}

// TestFailedCopyRollsBackAndRestoresIDs: a CopySubtrees that fails midway
// must leave no partial copy and return the reserved ids, so a retry
// allocates the same range (gapless allocation survives failures).
func TestFailedCopyRollsBackAndRestoresIDs(t *testing.T) {
	s := openCust(t, Options{Insert: TupleInsert})
	before := storeDump(t, s)
	// A bad WHERE fragment fails the outer-union read after the transaction
	// opens.
	if _, err := s.CopySubtrees("Order", "nosuchcol = 1", 1); err == nil {
		t.Fatalf("expected failure")
	}
	if got := storeDump(t, s); got != before {
		t.Errorf("failed copy left a trace:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}

// TestConcurrentSOUReadersWithEngineWriter races document-order Sorted
// Outer Union reconstructions against a writer running engine updates
// (pos-renumber positional inserts, deletes, and a failing statement per
// cycle). Readers must always observe a committed state: every
// reconstructed customer stays well-formed, and the store returns to a
// fixed point at quiesce.
func TestConcurrentSOUReadersWithEngineWriter(t *testing.T) {
	s := openCust(t, Options{Delete: PerTupleTrigger, OrderColumn: true})
	query := mustParse(t, `FOR $c IN document("custdb.xml")/CustDB/Customer RETURN $c`)
	base, err := s.QuerySubtrees(query)
	if err != nil {
		t.Fatal(err)
	}
	baseCount := len(base)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 5)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 40; i++ {
			// Insert an order under Mary (pos renumber via InsertContentAt),
			// then delete it again — net zero per cycle.
			if _, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer[Name="Mary"]
UPDATE $c { INSERT <Order><Date>2099-01-01</Date></Order> }`); err != nil {
				errs <- err
				return
			}
			if _, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer[Name="Mary"], $o IN $c/Order[Date="2099-01-01"]
UPDATE $c { DELETE $o }`); err != nil {
				errs <- err
				return
			}
			// A failing multi-sub-op statement: all-or-nothing, no trace.
			if _, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer, $o IN $c/Order
UPDATE $c { DELETE $o, INSERT <Name>Zed</Name> }`); err == nil {
				errs <- fmt.Errorf("expected failing statement to fail")
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				subs, err := s.QuerySubtrees(query)
				if err != nil {
					errs <- err
					return
				}
				if len(subs) != baseCount {
					errs <- fmt.Errorf("reader saw %d customers, want %d", len(subs), baseCount)
					return
				}
				for _, e := range subs {
					if e.Name != "Customer" {
						errs <- fmt.Errorf("malformed reconstruction root %q", e.Name)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Quiesce: the writer's cycles net to zero orders added or removed.
	after, err := s.QuerySubtrees(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != baseCount {
		t.Errorf("customer count drifted: %d -> %d", baseCount, len(after))
	}
	for i := range after {
		if got, want := xmltree.Serialize(after[i]), xmltree.Serialize(base[i]); got != want {
			t.Errorf("customer %d drifted:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestConcurrentReconstructReadsCommitted: Store.Reconstruct reads one
// snapshot, so another goroutine's open transaction — holding an
// uncommitted UPDATE, DELETE and INSERT — changes nothing it returns, and
// the read counts exactly the committed tuples it reconstructs.
func TestConcurrentReconstructReadsCommitted(t *testing.T) {
	s := openCust(t, Options{})
	want, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	tuples := int64(s.TupleCount())
	root := mustQuery(t, s, "SELECT id FROM "+s.M.Table(s.M.Root).Name).Data[0][0].MustInt()
	cust, line := s.M.Table("Customer").Name, s.M.Table("OrderLine").Name

	held, release, done := make(chan error), make(chan struct{}), make(chan error)
	go func() {
		tx := s.DB.Begin()
		for _, sql := range []string{
			fmt.Sprintf("UPDATE %s SET Name_v = 'Zed'", cust),
			fmt.Sprintf("DELETE FROM %s WHERE ItemName_v = 'wrench'", line),
			fmt.Sprintf("INSERT INTO %s (id, parentId, Name_v) VALUES (999, %d, 'Ghost')", cust, root),
		} {
			if _, err := tx.Exec(sql); err != nil {
				tx.Rollback()
				held <- fmt.Errorf("%s: %w", sql, err)
				return
			}
		}
		held <- nil
		<-release
		done <- tx.Rollback()
	}()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	before := s.DB.Stats().RowsScanned
	got, err := s.Reconstruct()
	scanned := s.DB.Stats().RowsScanned - before
	close(release)
	if rerr := <-done; rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("Reconstruct saw uncommitted writes:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if scanned != tuples {
		t.Fatalf("Reconstruct scanned %d rows, want the %d stored tuples", scanned, tuples)
	}
}

// TestFailedCopyAllMethods: every insert method's failed copy must leave no
// trace — in particular the table method's CREATE TEMP TABLE work areas
// must be dropped by the rollback, or the retry would fail with "table
// already exists".
func TestFailedCopyAllMethods(t *testing.T) {
	for _, m := range allInsertMethods {
		s := openCust(t, Options{Insert: m})
		// Destination: a real Customer tuple (the ASR method resolves the
		// destination's parent chain, so the root id would not do).
		rows, err := s.DB.Query(fmt.Sprintf("SELECT MIN(id) FROM %s", s.M.Table("Customer").Name))
		if err != nil {
			t.Fatal(err)
		}
		dst := rows.Data[0][0].MustInt()
		before := storeDump(t, s)
		if _, err := s.CopySubtrees("Order", "nosuchcol = 1", dst); err == nil {
			t.Fatalf("%v: expected failure", m)
		}
		if got := storeDump(t, s); got != before {
			t.Errorf("%v: failed copy left a trace:\n--- before ---\n%s--- after ---\n%s", m, before, got)
		}
		// The retry with a valid condition succeeds.
		if _, err := s.CopySubtrees("Order", "Date_v = '2000-07-04'", dst); err != nil {
			t.Errorf("%v: retry after failed copy: %v", m, err)
		}
	}
}

// TestAtomicallyPanicReleasesLock: a panic inside a transactional section
// must roll back and release the writer lock, leaving the store usable
// after the caller recovers.
func TestAtomicallyPanicReleasesLock(t *testing.T) {
	s := openCust(t, Options{})
	before := storeDump(t, s)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("expected panic to propagate")
			}
		}()
		s.atomically(func() error {
			if _, err := s.sql().Exec(fmt.Sprintf("DELETE FROM %s", s.M.Table("Order").Name)); err != nil {
				t.Fatal(err)
			}
			panic("boom")
		})
	}()
	if got := storeDump(t, s); got != before {
		t.Errorf("panic left a trace:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}
