package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/testdocs"
	"repro/internal/xmltree"
)

// TestTriggerDeleteWithASRKeptConsistent: a store configured for ASR inserts
// but trigger deletes must keep the ASR usable after a trigger delete.
func TestTriggerDeleteWithASRKeptConsistent(t *testing.T) {
	s := openCust(t, Options{Delete: PerTupleTrigger, Insert: ASRInsert})
	if s.ASR == nil {
		t.Fatal("store should have an ASR (insert method requires it)")
	}
	if _, err := s.DeleteSubtrees("Customer", "Name_v = 'Mary'"); err != nil {
		t.Fatal(err)
	}
	// After maintenance, the ASR must not reference Mary's tuples.
	rows, err := s.DB.Query(`SELECT COUNT(*) FROM ASR WHERE c1 IS NOT NULL AND c1 NOT IN (SELECT id FROM Customer)`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].MustInt() != 0 {
		t.Error("ASR references deleted tuples after trigger delete")
	}
	// And an ASR insert still works.
	if _, err := s.CopySubtrees("Customer", "Name_v = 'John'", 1); err != nil {
		t.Fatal(err)
	}
	if got := s.DB.RowCount("Customer"); got != 4 {
		t.Errorf("customers = %d, want 4", got)
	}
}

// TestCopySubtreesWithOrderColumn: copies are still well formed when the
// mapping stores positions.
func TestCopySubtreesWithOrderColumn(t *testing.T) {
	for _, m := range allInsertMethods {
		s := openCust(t, Options{Insert: m, OrderColumn: true})
		if _, err := s.CopySubtrees("Customer", "Name_v = 'Mary'", 1); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		doc, err := s.Reconstruct()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		marys := 0
		for _, c := range doc.Root.ChildElementsNamed("Customer") {
			if c.FirstChildNamed("Name").TextContent() == "Mary" {
				marys++
				if len(c.ChildElementsNamed("Order")) != 1 {
					t.Errorf("%v: Mary copy lost her order", m)
				}
			}
		}
		if marys != 2 {
			t.Errorf("%v: marys = %d, want 2", m, marys)
		}
	}
}

// TestDeleteEmptyMatchIsNoop across methods.
func TestDeleteEmptyMatchIsNoop(t *testing.T) {
	for _, m := range allDeleteMethods {
		s := openCust(t, Options{Delete: m})
		before := s.TupleCount()
		n, err := s.DeleteSubtrees("Customer", "Name_v = 'Nobody'")
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if n != 0 || s.TupleCount() != before {
			t.Errorf("%v: empty delete changed the store", m)
		}
	}
}

// TestCopyEmptyMatchIsNoop across methods.
func TestCopyEmptyMatchIsNoop(t *testing.T) {
	for _, m := range allInsertMethods {
		s := openCust(t, Options{Insert: m})
		before := s.TupleCount()
		n, err := s.CopySubtrees("Customer", "Name_v = 'Nobody'", 1)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if n != 0 || s.TupleCount() != before {
			t.Errorf("%v: empty copy changed the store", m)
		}
	}
}

// TestRepeatedCopiesKeepIDsUnique: the id allocation schemes of the three
// insert methods must never collide across repeated operations.
func TestRepeatedCopiesKeepIDsUnique(t *testing.T) {
	for _, m := range allInsertMethods {
		s := openCust(t, Options{Insert: m})
		for i := 0; i < 3; i++ {
			if _, err := s.CopySubtrees("Customer", "Address_City_v = 'Seattle'", 1); err != nil {
				t.Fatalf("%v round %d: %v", m, i, err)
			}
		}
		for _, elem := range s.M.TableOrder {
			tm := s.M.Table(elem)
			rows, err := s.DB.Query(fmt.Sprintf("SELECT COUNT(*) FROM %s", tm.Name))
			if err != nil {
				t.Fatal(err)
			}
			distinct, err := s.DB.Query(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE id IN (SELECT DISTINCT id FROM %s)", tm.Name, tm.Name))
			if err != nil {
				t.Fatal(err)
			}
			if rows.Data[0][0] != distinct.Data[0][0] {
				t.Errorf("%v: duplicate ids in %s", m, tm.Name)
			}
		}
	}
}

// TestInsertNewRefAppends: the relational reference-append path (§3.2
// semantics over the space-separated IDREFS column).
func TestInsertNewRefAppends(t *testing.T) {
	dtd := xmltree.MustParseDTD(`
<!ELEMENT root (lab*, person*)>
<!ELEMENT lab (#PCDATA)>
<!ELEMENT person (#PCDATA)>
<!ATTLIST lab ID ID #REQUIRED staff IDREFS #IMPLIED>
<!ATTLIST person ID ID #REQUIRED>
`)
	doc, err := xmltree.ParseWith(
		`<root><lab ID="l1" staff="p1">x</lab><lab ID="l2">y</lab><person ID="p1">A</person><person ID="p2">B</person></root>`,
		xmltree.ParseOptions{TrimText: true, DTD: dtd})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecString(`
FOR $l IN document("d")/root/lab
UPDATE $l { INSERT new_ref(staff, "p2") }`); err != nil {
		t.Fatal(err)
	}
	re, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	l1 := re.ByID("l1")
	if r := l1.Ref("staff"); r == nil || len(r.IDs) != 2 || r.IDs[0] != "p1" || r.IDs[1] != "p2" {
		t.Errorf("l1 staff = %+v", l1.Ref("staff"))
	}
	l2 := re.ByID("l2")
	if r := l2.Ref("staff"); r == nil || len(r.IDs) != 1 || r.IDs[0] != "p2" {
		t.Errorf("l2 staff = %+v", l2.Ref("staff"))
	}
}

// TestDeepInlinedPredicate: predicates over multi-level inlined paths.
func TestDeepInlinedPredicate(t *testing.T) {
	s := openCust(t, Options{Delete: PerTupleTrigger})
	n, err := s.ExecString(`
FOR $d IN document("x")/CustDB,
    $c IN $d/Customer[Address/City="Portland"]
UPDATE $d { DELETE $c }`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("targets = %d", n)
	}
	doc, _ := s.Reconstruct()
	for _, c := range doc.Root.ChildElementsNamed("Customer") {
		if c.FirstChildNamed("Name").TextContent() == "Mary" {
			t.Error("Portland customer survived")
		}
	}
}

// TestNumericPredicate: integer comparison over inlined payloads.
func TestNumericPredicate(t *testing.T) {
	doc := datagen.Fixed(datagen.FixedParams{ScalingFactor: 10, Depth: 2, Fanout: 1, Seed: 4})
	s, err := Open(doc, Options{Delete: PerTupleTrigger})
	if err != nil {
		t.Fatal(err)
	}
	// Count subtrees whose k1 payload is below 500000, then delete them.
	rows, err := s.DB.Query(`SELECT COUNT(*) FROM e1 WHERE k1_v < '500000'`)
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
	n, err := s.DeleteSubtrees("e1", "k1_v < '500000'")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DB.RowCount("e1"); got != 10-n {
		t.Errorf("e1 rows = %d after deleting %d", got, n)
	}
}

// TestQuerySubtreesWithWhere: the RETURN path honors WHERE clauses.
func TestQuerySubtreesWithWhere(t *testing.T) {
	s := openCust(t, Options{})
	stmt := mustParse(t, `
FOR $c IN document("x")/CustDB/Customer
WHERE $c/Address/State = "CA"
RETURN $c`)
	subs, err := s.QuerySubtrees(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Fatalf("subtrees = %d", len(subs))
	}
	if got := subs[0].FirstChildNamed("Address").FirstChildNamed("City").TextContent(); got != "Sacramento" {
		t.Errorf("city = %q", got)
	}
}

func TestQuerySubtreesErrors(t *testing.T) {
	s := openCust(t, Options{})
	// Update statement through QuerySubtrees.
	up := mustParse(t, `FOR $c IN document("x")/CustDB/Customer UPDATE $c { INSERT new_attribute(a,"1") }`)
	if _, err := s.QuerySubtrees(up); err == nil {
		t.Error("update via QuerySubtrees should fail")
	}
	// RETURN of a path rather than a bare variable.
	q := mustParse(t, `FOR $c IN document("x")/CustDB/Customer RETURN $c/Name`)
	if _, err := s.QuerySubtrees(q); err == nil {
		t.Error("RETURN with a path should fail")
	}
}

// TestExecStringErrors covers translation error paths.
func TestExecStringErrors(t *testing.T) {
	s := openCust(t, Options{})
	cases := []struct {
		q    string
		frag string
	}{
		{`FOR $c IN document("x")/CustDB/Customer, $n IN $c/Name UPDATE $n { DELETE $n }`, "table element"},
		{`FOR $c IN document("x")/CustDB/Customer UPDATE $c { RENAME $c TO Client }`, "RENAME"},
		{`FOR $c IN document("x")/CustDB/Customer, $o IN $c/Order UPDATE $c { INSERT "x" BEFORE $o }`, "content"},
		{`FOR $c IN document("x")//Name UPDATE $c { DELETE $c }`, "table"},
	}
	for _, c := range cases {
		_, err := s.ExecString(c.q)
		if err == nil {
			t.Errorf("ExecString(%q) succeeded, want error", c.q)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ExecString(%q) error %q does not mention %q", c.q, err, c.frag)
		}
	}
}

// TestSnapshotRestoreRoundTrip on the engine level.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := openCust(t, Options{Delete: PerTupleTrigger, Insert: TableInsert})
	before, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if _, err := s.DeleteSubtrees("Customer", "Name_v = 'John'"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CopySubtrees("Customer", "Name_v = 'Mary'", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(snap); err != nil {
		t.Fatalf("Restore of a memory store: %v", err)
	}
	after, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if after.String() != before.String() {
		t.Error("snapshot restore did not round-trip the store")
	}
	// NextID restored too: a copy after restore reuses the id range.
	id1 := s.NextID()
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if s.NextID() != id1 {
		t.Error("NextID not restored")
	}
	// A transaction open on the store refuses the reset and keeps the id
	// counter where the store left it.
	tx := s.DB.Begin()
	s.AllocateIDs(5)
	if err := s.Restore(snap); err == nil {
		t.Error("Restore with a transaction open succeeded")
	}
	if s.NextID() != id1+5 {
		t.Errorf("refused Restore moved NextID to %d, want %d", s.NextID(), id1+5)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// A store opened on a directory is never reset: its snapshot restores
	// nothing.
	ds, err := OpenDir(t.TempDir(), custDoc(t), Options{}, noCkptOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.Restore(ds.Snapshot()); err == nil {
		t.Error("Restore of a directory store succeeded")
	}
}

// TestMultipleUpdatesSequence: several ExecString calls compose.
func TestMultipleUpdatesSequence(t *testing.T) {
	s := openCust(t, Options{Delete: PerTupleTrigger, OrderColumn: true})
	steps := []string{
		`FOR $c IN document("x")/CustDB/Customer[Name="Mary"] UPDATE $c { INSERT <Order><Date>2001-05-05</Date></Order> }`,
		`FOR $c IN document("x")/CustDB/Customer[Name="Mary"], $o IN $c/Order[Date="2000-07-04"] UPDATE $c { DELETE $o }`,
	}
	for _, q := range steps {
		if _, err := s.ExecString(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	doc, _ := s.Reconstruct()
	for _, c := range doc.Root.ChildElementsNamed("Customer") {
		if c.FirstChildNamed("Name").TextContent() != "Mary" {
			continue
		}
		orders := c.ChildElementsNamed("Order")
		if len(orders) != 1 || orders[0].FirstChildNamed("Date").TextContent() != "2001-05-05" {
			t.Errorf("Mary's orders wrong: %d", len(orders))
		}
	}
}

// TestFixedDocBulkWorkflowAllMethods: a sweep across methods on synthetic
// data, checking final tuple counts agree.
func TestFixedDocBulkWorkflowAllMethods(t *testing.T) {
	doc := datagen.Fixed(datagen.FixedParams{ScalingFactor: 8, Depth: 3, Fanout: 2, Seed: 2})
	for _, dm := range allDeleteMethods {
		s, err := Open(doc, Options{Delete: dm})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.DeleteSubtrees("e1", ""); err != nil {
			t.Fatalf("%v: %v", dm, err)
		}
		if got := s.TupleCount(); got != 1 {
			t.Errorf("%v: tuples after bulk delete = %d, want 1 (root)", dm, got)
		}
	}
	for _, im := range allInsertMethods {
		s, err := Open(doc, Options{Insert: im})
		if err != nil {
			t.Fatal(err)
		}
		before := s.TupleCount()
		n, err := s.CopySubtrees("e1", "", 1)
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		if n != 8 {
			t.Errorf("%v: copied %d roots, want 8", im, n)
		}
		if got := s.TupleCount(); got != 2*before-1 {
			t.Errorf("%v: tuples = %d, want %d", im, got, 2*before-1)
		}
	}
}

// TestReconstructAfterMixedWorkload: reconstruction stays well-formed after
// an interleaved delete/copy/update sequence.
func TestReconstructAfterMixedWorkload(t *testing.T) {
	doc := testdocs.Cust()
	s, err := Open(doc, Options{Delete: ASRDelete, Insert: ASRInsert})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CopySubtrees("Customer", "Name_v = 'John'", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteSubtrees("Customer", "Address_State_v = 'CA'"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecString(`
FOR $c IN document("x")/CustDB/Customer[Name="Mary"]
UPDATE $c { INSERT <Order><Date>2001-09-09</Date></Order> }`); err != nil {
		t.Fatal(err)
	}
	re, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	// 3 original + 2 copies - 2 CA (original + copy) = 3 customers.
	if got := len(re.Root.ChildElementsNamed("Customer")); got != 3 {
		t.Errorf("customers = %d, want 3", got)
	}
	// Re-parse what we serialized: well-formedness check.
	if _, err := xmltree.Parse(re.String()); err != nil {
		t.Errorf("reconstructed document is not well-formed: %v", err)
	}
}
