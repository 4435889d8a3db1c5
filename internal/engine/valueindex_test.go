package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/xquery"
)

// TestConcurrentValueIndexDerivation: readers translating a `[@key=…]`
// predicate for the first time race the updater, whose statements compare
// the same column. One CREATE INDEX statement creates the value index, and
// every read still returns its publication. Run with -race.
func TestConcurrentValueIndexDerivation(t *testing.T) {
	doc := datagen.DBLP(datagen.DBLPParams{Conferences: 6, PubsPerConf: 20, Seed: 3})
	var keys []string // the first conference's publications
	for _, p := range doc.Root.ChildElementsNamed("conference")[0].ChildElementsNamed("publication") {
		k, _ := p.AttrValue("key")
		keys = append(keys, k)
	}
	s, err := Open(doc, Options{OrderColumn: true})
	if err != nil {
		t.Fatal(err)
	}
	var creates atomic.Int32
	cancel := s.DB.OnTrace(func(q *relational.QueryTrace) {
		if strings.HasPrefix(q.SQL, "CREATE INDEX") {
			creates.Add(1)
		}
	})
	defer cancel()

	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		<-start
		for _, k := range keys[1:] {
			if _, err := s.ExecString(pointShapes("Conf-000", k)[1].text); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 5; i++ {
				stmt, err := xquery.Parse(pointShapes("Conf-000", keys[0])[5].text)
				if err != nil {
					errs <- err
					return
				}
				subs, err := s.QuerySubtrees(stmt)
				if err != nil {
					errs <- err
					return
				}
				if len(subs) != 1 {
					errs <- fmt.Errorf("read of %s returned %d subtrees, want 1", keys[0], len(subs))
					return
				}
				if k, _ := subs[0].AttrValue("key"); k != keys[0] {
					errs <- fmt.Errorf("read of %s returned publication %s", keys[0], k)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := creates.Load(); n != 1 {
		t.Errorf("CREATE INDEX issued %d times, want once", n)
	}
	out, err := s.DB.Explain("SELECT id FROM publication WHERE a_key = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IndexProbe publication (a_key = 'x')") {
		t.Errorf("the derived index does not serve the binding SELECT:\n%s", out)
	}
}

// copyStoreDir copies a store directory as a crash leaves it: whatever its
// files hold now, with the store still open.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
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

// TestValueIndexSurvivesReopen: a derived index is plain DDL, so it
// survives both a Close/reopen (through the checkpoint's schema history)
// and a kill-style copy (through the log tail): the first point update
// after either reopen already probes, reading exactly the rows it read
// before.
func TestValueIndexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	doc := datagen.DBLP(datagen.DBLPParams{Conferences: 6, PubsPerConf: 20, Seed: 3})
	s, err := OpenDir(dir, doc, Options{OrderColumn: true}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	shapes := pointShapes("Conf-000", "law/durable")
	for _, sh := range shapes[:2] {
		runPointShape(t, s, sh)
	}
	// The indexes exist now: this is a point update's steady-state cost.
	warm := runPointShape(t, s, shapes[1])
	if warm.FullScans != 0 {
		t.Fatalf("replace title full-scanned %d times with its index in place", warm.FullScans)
	}
	killed := copyStoreDir(t, dir)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, killed} {
		s2, err := OpenDir(d, nil, Options{}, noCkptOpts())
		if err != nil {
			t.Fatal(err)
		}
		got := runPointShape(t, s2, shapes[1])
		if got.FullScans != 0 || got.RowsScanned != warm.RowsScanned {
			t.Errorf("first update after reopening %s: %d rows scanned, %d full scans; want %d, 0",
				filepath.Base(d), got.RowsScanned, got.FullScans, warm.RowsScanned)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
