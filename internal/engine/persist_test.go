package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/outerunion"
	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

func noCkptOpts() relational.Options {
	return relational.Options{Sync: relational.SyncOff, CheckpointBytes: -1}
}

// souDump renders the Sorted-Outer-Union reconstruction of every Customer
// subtree in document order — the output the acceptance criterion compares
// across a restart.
func souDump(t *testing.T, s *Store) string {
	t.Helper()
	subs, err := outerunion.Query(s.DB, s.M, "Customer", "")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, st := range subs {
		b.WriteString(xmltree.SerializeWith(st.Root, xmltree.SerializeOptions{Indent: "  ", SortAttrs: true}))
		b.WriteByte('\n')
	}
	return b.String()
}

const example8 = `
FOR $o IN document("custdb.xml")//Order[Status="ready" and OrderLine/ItemName="tire"],
    $st IN $o/Status
UPDATE $o {
    REPLACE $st WITH <Status>suspended</Status>,
    FOR $i IN $o/OrderLine[ItemName="tire"]
    UPDATE $i {
        INSERT <comment>recalled</comment>
    }
}`

const insertOrder = `
FOR $c IN document("custdb.xml")/CustDB/Customer[Name="Mary"]
UPDATE $c {
    INSERT <Order><Date>2001-01-01</Date><OrderLine><ItemName>saw</ItemName><Qty>1</Qty></OrderLine></Order>
}`

// TestOpenDirShredUpdateReopenQuery is the acceptance round-trip: shred a
// document into a data directory, apply updates, "restart" (close and
// reopen from disk, no document), query — the SOU reconstruction output
// must equal a never-restarted in-memory store that ran the same updates.
func TestOpenDirShredUpdateReopenQuery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, custDoc(t), Options{Delete: PerTupleTrigger}, noCkptOpts())
	if err != nil {
		t.Fatalf("OpenDir (init): %v", err)
	}
	if _, err := s.ExecString(example8); err != nil {
		t.Fatal(err)
	}
	beforeRestart := souDump(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: no document this time — everything comes from disk.
	s2, err := OpenDir(dir, nil, Options{}, noCkptOpts())
	if err != nil {
		t.Fatalf("OpenDir (reopen): %v", err)
	}
	defer s2.Close()
	if got := souDump(t, s2); got != beforeRestart {
		t.Fatalf("SOU reconstruction differs across restart:\n got:\n%s\nwant:\n%s", got, beforeRestart)
	}

	// And against a store that never persisted anything.
	mem := openCust(t, Options{Delete: PerTupleTrigger})
	if _, err := mem.ExecString(example8); err != nil {
		t.Fatal(err)
	}
	if want := souDump(t, mem); beforeRestart != want {
		t.Fatalf("persistent store diverges from in-memory store:\n got:\n%s\nwant:\n%s", beforeRestart, want)
	}

	// The reopened store keeps working: run another update and compare full
	// reconstructions again.
	if _, err := s2.ExecString(insertOrder); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ExecString(insertOrder); err != nil {
		t.Fatal(err)
	}
	d2, err := s2.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	dm, err := mem.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if d2.String() != dm.String() {
		t.Fatalf("post-restart update diverges:\n got:\n%s\nwant:\n%s", d2.String(), dm.String())
	}
}

// TestNextIDSurvivesRestart: id allocation must continue gaplessly after a
// reopen — the §6.2.2 systemwide counter is part of the durable state.
func TestNextIDSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, custDoc(t), Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecString(insertOrder); err != nil {
		t.Fatal(err)
	}
	wantNext := s.NextID()
	s.Close()

	s2, err := OpenDir(dir, nil, Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.NextID(); got != wantNext {
		t.Fatalf("NextID after restart = %d, want %d", got, wantNext)
	}
	// The in-memory twin allocates the same ids for the same second insert.
	mem := openCust(t, Options{})
	if _, err := mem.ExecString(insertOrder); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ExecString(insertOrder); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ExecString(insertOrder); err != nil {
		t.Fatal(err)
	}
	if s2.NextID() != mem.NextID() {
		t.Fatalf("id allocation diverged: persistent %d vs in-memory %d", s2.NextID(), mem.NextID())
	}
	d2, _ := s2.Reconstruct()
	dm, _ := mem.Reconstruct()
	if d2.String() != dm.String() {
		t.Fatal("documents diverged after restart + insert")
	}
}

// TestCrashRecoveryWithoutClose: abandoning the store (no Close, no
// checkpoint) must lose nothing — every committed update is in the log.
func TestCrashRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, custDoc(t), Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecString(example8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecString(insertOrder); err != nil {
		t.Fatal(err)
	}
	want, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a crash by simply reopening the directory.
	s2, err := OpenDir(dir, nil, Options{}, noCkptOpts())
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	got, err := s2.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("crash recovery lost committed updates:\n got:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestASRStoreRecovery: the ASR table recovers with the data and the
// reattached structure drives further ASR deletes correctly.
func TestASRStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, custDoc(t), Options{Delete: ASRDelete, Insert: ASRInsert}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteSubtrees("Customer", "Name_v = 'John'"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenDir(dir, nil, Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ASR == nil {
		t.Fatal("reopened store lost its ASR")
	}
	if s2.Opt.Delete != ASRDelete || s2.Opt.Insert != ASRInsert {
		t.Fatalf("options not restored from metadata: %+v", s2.Opt)
	}
	// ASR-driven delete still works on the recovered path index.
	if _, err := s2.DeleteSubtrees("Order", "Status_v = 'shipped'"); err != nil {
		t.Fatalf("ASR delete after recovery: %v", err)
	}
	mem := openCust(t, Options{Delete: ASRDelete, Insert: ASRInsert})
	if _, err := mem.DeleteSubtrees("Customer", "Name_v = 'John'"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.DeleteSubtrees("Order", "Status_v = 'shipped'"); err != nil {
		t.Fatal(err)
	}
	d2, _ := s2.Reconstruct()
	dm, _ := mem.Reconstruct()
	if d2.String() != dm.String() {
		t.Fatalf("ASR store diverged after recovery:\n got:\n%s\nwant:\n%s", d2.String(), dm.String())
	}
}

// TestReopenRejectsMismatchedDocument: reopening an initialized store with
// a document of different provenance must error, not silently reopen the
// old data under the new document's name.
func TestReopenRejectsMismatchedDocument(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, custDoc(t), Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Same document: reopening with it is fine (idempotent init command).
	s2, err := OpenDir(dir, custDoc(t), Options{}, noCkptOpts())
	if err != nil {
		t.Fatalf("reopen with matching document: %v", err)
	}
	s2.Close()

	// A document with a different DTD must be rejected.
	other := xmltree.MustParseDTD(`<!ELEMENT CustDB (Customer*)>
<!ELEMENT Customer (#PCDATA)>`)
	doc, err := xmltree.ParseWith("<CustDB><Customer>x</Customer></CustDB>", xmltree.ParseOptions{TrimText: true, DTD: other})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, doc, Options{}, noCkptOpts()); err == nil ||
		!strings.Contains(err.Error(), "DTD differs") {
		t.Fatalf("mismatched DTD: err = %v, want rejection", err)
	}
}

// TestHalfInitializedStoreRebuilds: a crash during initialization (before
// the metadata's final 'nextid' write) must not brick the directory —
// OpenDir with the document wipes the partial log and redoes the shred,
// and OpenDir without one reports what happened instead of failing
// obscurely.
func TestHalfInitializedStoreRebuilds(t *testing.T) {
	dir := t.TempDir()
	// Simulate the crash window: a relational DB with shredded tables and
	// bulk rows but no (complete) metadata, abandoned mid-initialization.
	db, err := relational.Open(dir, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	doc := custDoc(t)
	m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shred.Load(db, m, doc); err != nil {
		t.Fatal(err)
	}
	// No Close, no meta: this is the half-built state. The load checkpointed,
	// so it is the crash after that checkpoint: page files and a checkpoint
	// marker that a rebuild must replace, not trust.
	for _, e := range m.TableOrder {
		name := strings.ToLower(m.Tables[e].Name) + ".pages"
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("half-built store has no page file for %s: %v", e, err)
		}
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt")); len(ckpts) == 0 {
		t.Fatal("half-built store has no checkpoint")
	}

	if _, err := OpenDir(dir, nil, Options{}, noCkptOpts()); err == nil ||
		!strings.Contains(err.Error(), "half-initialized") {
		t.Fatalf("doc-less open of a partial store: err = %v, want half-initialized diagnosis", err)
	}
	s, err := OpenDir(dir, custDoc(t), Options{}, noCkptOpts())
	if err != nil {
		t.Fatalf("re-initialization over a partial store: %v", err)
	}
	defer s.Close()
	got, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	mem := openCust(t, Options{})
	want, _ := mem.Reconstruct()
	if got.String() != want.String() {
		t.Fatal("rebuilt store does not match a fresh shred")
	}
	// And the rebuilt store is fully functional + durable.
	if _, err := s.ExecString(insertOrder); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenDir(dir, nil, Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NextID() != s.NextID() {
		t.Fatal("rebuilt store lost durability")
	}
}

// TestRolledBackUpdateNotReplayed: a failed multi-sub-op update must leave
// nothing in the log — recovery lands on the pre-update state.
func TestRolledBackUpdateNotReplayed(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, custDoc(t), Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	wantNext := s.NextID()
	if _, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer, $o IN $c/Order
UPDATE $c {
    DELETE $o,
    INSERT <Name>Zed</Name>
}`); err == nil {
		t.Fatal("expected execution-phase failure")
	}
	// Crash without Close: the log must not contain the rolled-back work.
	s2, err := OpenDir(dir, nil, Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("rolled-back update leaked into the recovered store")
	}
	if s2.NextID() != wantNext {
		t.Fatalf("NextID after recovered rollback = %d, want %d", s2.NextID(), wantNext)
	}
}

// pagedOpts runs the store with a pool far smaller than the shredded
// document, so SOU reconstruction streams through faults and evictions
// rather than resident rows.
func pagedOpts() relational.Options {
	o := noCkptOpts()
	o.PoolPages = 4
	o.PageSize = 512
	return o
}

// TestOpenDirDefaultIsPaged: a directory store is paged without asking —
// options that name no storage backend still get a bounded buffer pool, and
// a checkpoint writes one page file per shredded table.
func TestOpenDirDefaultIsPaged(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, custDoc(t), Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, limit := s.DB.PagedPoolStats(); limit == 0 {
		t.Fatal("directory store has no buffer pool")
	}
	for _, e := range s.M.TableOrder {
		name := strings.ToLower(s.M.Tables[e].Name) + ".pages"
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("table %s has no page file after a checkpoint: %v", e, err)
		}
	}
}

// TestOpenDirPagedStorage is the paged twin of the acceptance round-trip:
// shred, update, checkpoint, restart, and SOU-reconstruct on a pool a
// fraction of the dataset — output must be byte-identical to an in-memory
// store, with evictions proving the pool actually bounded residency.
func TestOpenDirPagedStorage(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDir(dir, custDoc(t), Options{Delete: PerTupleTrigger}, pagedOpts())
	if err != nil {
		t.Fatalf("OpenDir (init, paged): %v", err)
	}
	if _, err := s.ExecString(example8); err != nil {
		t.Fatal(err)
	}
	if err := s.DB.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	beforeRestart := souDump(t, s)
	if s.DB.Stats().Evictions == 0 {
		t.Fatal("paged store never evicted — pool larger than the document")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := OpenDir(dir, nil, Options{}, pagedOpts())
	if err != nil {
		t.Fatalf("OpenDir (reopen, paged): %v", err)
	}
	defer s2.Close()
	if got := souDump(t, s2); got != beforeRestart {
		t.Fatalf("paged SOU reconstruction differs across restart:\n got:\n%s\nwant:\n%s", got, beforeRestart)
	}

	mem := openCust(t, Options{Delete: PerTupleTrigger})
	if _, err := mem.ExecString(example8); err != nil {
		t.Fatal(err)
	}
	if want := souDump(t, mem); beforeRestart != want {
		t.Fatalf("paged store diverges from in-memory store:\n got:\n%s\nwant:\n%s", beforeRestart, want)
	}
}

// TestReconstructCorruptPage: a page that fails its checksum when faulted
// in must fail the reconstruction, not silently drop the page's rows. The
// child tables' page files are damaged under an open store whose two-page
// pool has evicted most of them, so Reconstruct's table scans fault
// corrupt pages (the root table stays intact, so the failure cannot hide
// behind a missing root).
func TestReconstructCorruptPage(t *testing.T) {
	dir := t.TempDir()
	opts := noCkptOpts()
	opts.PoolPages = 2
	opts.PageSize = 512
	s, err := OpenDir(dir, custDoc(t), Options{}, opts)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer s.Close()
	damaged := 0
	for _, elem := range s.M.TableOrder {
		if elem == s.M.Root {
			continue
		}
		path := filepath.Join(dir, strings.ToLower(s.M.Tables[elem].Name)+".pages")
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		ps := int64(opts.PageSize)
		for off := int64(0); off+ps <= st.Size(); off += ps {
			if _, err := f.WriteAt([]byte("corrupt!"), off+ps/2); err != nil {
				t.Fatal(err)
			}
			damaged++
		}
		f.Close()
	}
	if _, _, limit := s.DB.PagedPoolStats(); damaged <= limit {
		t.Fatalf("damaged %d pages, not more than the %d the pool can hold resident", damaged, limit)
	}
	if _, err := s.Reconstruct(); err == nil {
		t.Fatal("Reconstruct over corrupt pages returned no error")
	}
}
