package engine

import (
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/testdocs"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

func custDoc(t testing.TB) *xmltree.Document {
	t.Helper()
	dtd := xmltree.MustParseDTD(testdocs.CustDTD)
	doc, err := xmltree.ParseWith(testdocs.CustXML, xmltree.ParseOptions{TrimText: true, DTD: dtd})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func openCust(t testing.TB, opts Options) *Store {
	t.Helper()
	s, err := Open(custDoc(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var allDeleteMethods = []DeleteMethod{PerTupleTrigger, PerStatementTrigger, CascadingDelete, ASRDelete}
var allInsertMethods = []InsertMethod{TupleInsert, TableInsert, ASRInsert}

// TestDeleteMethodsAgree runs the paper's Example 9 delete (customers named
// John) under all four strategies and checks they produce identical
// documents.
func TestDeleteMethodsAgree(t *testing.T) {
	var want string
	for _, m := range allDeleteMethods {
		s := openCust(t, Options{Delete: m})
		n, err := s.DeleteSubtrees("Customer", "Name_v = 'John'")
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if n != 2 {
			t.Errorf("%v: deleted %d roots, want 2", m, n)
		}
		// All orders and lines belonged to Johns.
		if got := s.DB.Table(s.M.Table("Order").Name).RowCount(); got != 1 {
			t.Errorf("%v: orders left = %d, want 1", m, got)
		}
		if got := s.DB.Table(s.M.Table("OrderLine").Name).RowCount(); got != 1 {
			t.Errorf("%v: lines left = %d, want 1", m, got)
		}
		doc, err := s.Reconstruct()
		if err != nil {
			t.Fatalf("%v: reconstruct: %v", m, err)
		}
		if want == "" {
			want = doc.String()
			continue
		}
		if doc.String() != want {
			t.Errorf("%v: document differs:\n%s\nwant:\n%s", m, doc.String(), want)
		}
	}
}

func TestDeleteInlinedSimple(t *testing.T) {
	s := openCust(t, Options{Delete: PerTupleTrigger})
	// Simple deletion: Address is inlined; deleting it is one UPDATE.
	s.DB.ResetStats()
	n, err := s.DeleteInlined("Customer", []string{"Address"}, "Name_v = 'Mary'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("updated %d tuples", n)
	}
	if st := s.DB.Stats(); st.Statements != 1 {
		t.Errorf("simple delete used %d statements", st.Statements)
	}
	doc, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Root.ChildElementsNamed("Customer") {
		if c.FirstChildNamed("Name").TextContent() == "Mary" {
			if c.FirstChildNamed("Address") != nil {
				t.Error("Mary's address still present")
			}
		} else if c.FirstChildNamed("Address") == nil {
			t.Error("other customers' addresses disturbed")
		}
	}
}

// TestInsertMethodsAgree copies all John subtrees back under the root with
// each method and compares the resulting documents.
func TestInsertMethodsAgree(t *testing.T) {
	var want string
	for _, m := range allInsertMethods {
		s := openCust(t, Options{Insert: m})
		n, err := s.CopySubtrees("Customer", copyWhere(m, "Name_v = 'John'"), 1)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if n != 2 {
			t.Errorf("%v: copied %d roots, want 2", m, n)
		}
		if got := s.DB.Table(s.M.Table("Customer").Name).RowCount(); got != 5 {
			t.Errorf("%v: customers = %d, want 5", m, got)
		}
		if got := s.DB.Table(s.M.Table("Order").Name).RowCount(); got != 5 {
			t.Errorf("%v: orders = %d, want 5", m, got)
		}
		if got := s.DB.Table(s.M.Table("OrderLine").Name).RowCount(); got != 7 {
			t.Errorf("%v: lines = %d, want 7", m, got)
		}
		doc, err := s.Reconstruct()
		if err != nil {
			t.Fatalf("%v: reconstruct: %v", m, err)
		}
		if want == "" {
			want = doc.String()
			continue
		}
		if doc.String() != want {
			t.Errorf("%v: document differs:\n%s\nwant:\n%s", m, doc.String(), want)
		}
	}
}

// copyWhere adapts the source condition for the outer union alias used by
// the tuple method (its base query aliases the target table as T; the
// engine's SQL resolves unqualified names against it either way).
func copyWhere(_ InsertMethod, cond string) string { return cond }

// TestTupleInsertGaplessIDs: §6.2.1 notes the tuple method allocates ids
// without gaps.
func TestTupleInsertGaplessIDs(t *testing.T) {
	s := openCust(t, Options{Insert: TupleInsert})
	before := s.NextID()
	if _, err := s.CopySubtrees("Customer", "Name_v = 'John'", 1); err != nil {
		t.Fatal(err)
	}
	after := s.NextID()
	if after-before != 7 {
		t.Errorf("allocated %d ids for 7 tuples (gaps)", after-before)
	}
	// The table method's offset heuristic may allocate with gaps.
	s2 := openCust(t, Options{Insert: TableInsert})
	before = s2.NextID()
	if _, err := s2.CopySubtrees("Customer", "Name_v = 'John'", 1); err != nil {
		t.Fatal(err)
	}
	if s2.NextID()-before < 7 {
		t.Errorf("table method allocated too few ids")
	}
}

func TestCopyIntoSpecificParent(t *testing.T) {
	// Copy Mary's single order under Seattle John's customer tuple.
	s := openCust(t, Options{Insert: TableInsert})
	rows, err := s.DB.Query(`SELECT id FROM Customer WHERE Address_City_v = 'Seattle'`)
	if err != nil {
		t.Fatal(err)
	}
	johnID := rows.Data[0][0].MustInt()
	n, err := s.CopySubtrees("Order", "Date_v = '2000-07-04'", johnID)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("copied %d", n)
	}
	doc, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Root.ChildElementsNamed("Customer") {
		city := c.FirstChildNamed("Address").FirstChildNamed("City").TextContent()
		orders := len(c.ChildElementsNamed("Order"))
		switch city {
		case "Seattle":
			if orders != 3 {
				t.Errorf("Seattle John has %d orders, want 3", orders)
			}
		case "Portland":
			if orders != 1 {
				t.Errorf("Mary has %d orders, want 1 (copy semantics)", orders)
			}
		}
	}
}

func TestASRMaintainedAcrossInsertThenDelete(t *testing.T) {
	s := openCust(t, Options{Delete: ASRDelete, Insert: ASRInsert})
	if _, err := s.CopySubtrees("Customer", "Name_v = 'John'", 1); err != nil {
		t.Fatal(err)
	}
	// Delete every John (original and copies) through the ASR.
	n, err := s.DeleteSubtrees("Customer", "Name_v = 'John'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("deleted %d Johns, want 4", n)
	}
	doc, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(doc.Root.ChildElementsNamed("Customer")); got != 1 {
		t.Errorf("customers left = %d, want 1", got)
	}
	// ASR still answers path queries correctly after maintenance.
	rows, err := s.DB.Query(`SELECT COUNT(*) FROM ASR WHERE mark = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].MustInt() != 0 {
		t.Error("marks left behind")
	}
}

func TestInsertInlinedWarnsOnOccupied(t *testing.T) {
	s := openCust(t, Options{})
	// Every customer already has a Name: inserting over it must fail (§6.2).
	if _, err := s.InsertInlined("Customer", []string{"Name"}, "Impostor", ""); err == nil {
		t.Error("insert over existing 1:1 content should fail")
	}
	// Status is optional; order 11 ('shipped') has one, the others too —
	// clear Mary's first, then insert.
	if _, err := s.DeleteInlined("Order", []string{"Status"}, "Date_v = '2000-07-04'"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertInlined("Order", []string{"Status"}, "pending", "Date_v = '2000-07-04'"); err != nil {
		t.Fatal(err)
	}
	rows, _ := s.DB.Query(`SELECT Status_v FROM Order_t WHERE Date_v = '2000-07-04'`)
	if rows.Data[0][0] != relational.Text("pending") {
		t.Errorf("status = %v", rows.Data[0][0])
	}
}

// TestExample9SQL runs Example 9 through the XQuery-to-SQL translator.
func TestExample9SQL(t *testing.T) {
	s := openCust(t, Options{Delete: PerTupleTrigger})
	n, err := s.ExecString(`
FOR $d IN document("custdb.xml")/CustDB,
    $c IN $d/Customer[Name="John"]
UPDATE $d {
    DELETE $c
}`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 { // one target tuple (the CustDB root)
		t.Errorf("targets = %d", n)
	}
	doc, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	cs := doc.Root.ChildElementsNamed("Customer")
	if len(cs) != 1 || cs[0].FirstChildNamed("Name").TextContent() != "Mary" {
		t.Errorf("remaining customers wrong")
	}
}

// TestExample8SQL runs the Example 8 pattern: the outer operation changes
// the Status the nested selection depends on; because all bindings are
// computed before execution (§6.3), the nested update still applies.
func TestExample8SQL(t *testing.T) {
	s := openCust(t, Options{Delete: PerTupleTrigger})
	n, err := s.ExecString(`
FOR $o IN document("custdb.xml")//Order[Status="ready" and OrderLine/ItemName="tire"],
    $st IN $o/Status
UPDATE $o {
    REPLACE $st WITH <Status>suspended</Status>,
    FOR $i IN $o/OrderLine[ItemName="tire"]
    UPDATE $i {
        INSERT <comment>recalled</comment>
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("targets = %d, want 1", n)
	}
	doc, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	var suspended, recalled int
	xmltree.Walk(doc.Root, func(e *xmltree.Element) bool {
		if e.Name == "Status" && e.TextContent() == "suspended" {
			suspended++
		}
		if e.Name == "comment" && e.TextContent() == "recalled" {
			recalled++
		}
		return true
	})
	if suspended != 1 {
		t.Errorf("suspended orders = %d, want 1", suspended)
	}
	if recalled != 1 {
		t.Errorf("recalled comments = %d, want 1 (nested binding must precede outer execution)", recalled)
	}
}

func TestExecInsertSubtreeLiteral(t *testing.T) {
	s := openCust(t, Options{})
	_, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer[Name="Mary"]
UPDATE $c {
    INSERT <Order><Date>2001-01-01</Date><OrderLine><ItemName>saw</ItemName><Qty>1</Qty></OrderLine></Order>
}`)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Root.ChildElementsNamed("Customer") {
		if c.FirstChildNamed("Name").TextContent() != "Mary" {
			continue
		}
		orders := c.ChildElementsNamed("Order")
		if len(orders) != 2 {
			t.Fatalf("Mary has %d orders, want 2", len(orders))
		}
	}
}

func TestExecDeleteAttributeViaQuery(t *testing.T) {
	dtd := xmltree.MustParseDTD(`
<!ELEMENT root (item*)>
<!ELEMENT item (name)>
<!ELEMENT name (#PCDATA)>
<!ATTLIST item kind CDATA #IMPLIED tag CDATA #IMPLIED>
`)
	doc, err := xmltree.ParseWith(`<root><item kind="a" tag="x"><name>one</name></item><item kind="b"><name>two</name></item></root>`,
		xmltree.ParseOptions{TrimText: true, DTD: dtd})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.ExecString(`
FOR $i IN document("d.xml")/root/item[@kind="a"],
    $k IN $i/@tag
UPDATE $i {
    DELETE $k
}`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("targets = %d", n)
	}
	re, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	items := re.Root.ChildElementsNamed("item")
	if _, ok := items[0].AttrValue("tag"); ok {
		t.Error("tag attribute survived")
	}
	if v, _ := items[0].AttrValue("kind"); v != "a" {
		t.Error("kind attribute disturbed")
	}
}

func TestExecInsertAttribute(t *testing.T) {
	dtd := xmltree.MustParseDTD(`
<!ELEMENT root (item*)>
<!ELEMENT item (#PCDATA)>
<!ATTLIST item level CDATA #IMPLIED>
`)
	doc, err := xmltree.ParseWith(`<root><item>x</item></root>`, xmltree.ParseOptions{TrimText: true, DTD: dtd})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecString(`
FOR $i IN document("d.xml")/root/item
UPDATE $i { INSERT new_attribute(level, "7") }`); err != nil {
		t.Fatal(err)
	}
	re, _ := s.Reconstruct()
	if v, _ := re.Root.ChildElementsNamed("item")[0].AttrValue("level"); v != "7" {
		t.Errorf("level = %q", v)
	}
	// Second insert over the same attribute fails (§3.2).
	if _, err := s.ExecString(`
FOR $i IN document("d.xml")/root/item
UPDATE $i { INSERT new_attribute(level, "8") }`); err == nil {
		t.Error("duplicate attribute insert should fail")
	}
}

func TestOrderColumnPositionalInsert(t *testing.T) {
	s := openCust(t, Options{OrderColumn: true})
	// Insert a new order before each ready order of Seattle John.
	_, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer[Address/City="Seattle"],
    $o IN $c/Order[Status="ready"]
UPDATE $c {
    INSERT <Order><Date>1999-12-31</Date></Order> BEFORE $o
}`)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Root.ChildElementsNamed("Customer") {
		if c.FirstChildNamed("Address").FirstChildNamed("City").TextContent() != "Seattle" {
			continue
		}
		orders := c.ChildElementsNamed("Order")
		if len(orders) != 3 {
			t.Fatalf("orders = %d, want 3", len(orders))
		}
		if orders[0].FirstChildNamed("Date").TextContent() != "1999-12-31" {
			t.Errorf("new order not first: %s", orders[0].FirstChildNamed("Date").TextContent())
		}
		if orders[1].FirstChildNamed("Date").TextContent() != "2000-05-01" {
			t.Errorf("ready order displaced wrongly")
		}
	}
}

func TestPositionalInsertWithoutOrderColumnFails(t *testing.T) {
	s := openCust(t, Options{})
	_, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer[Name="Mary"],
    $o IN $c/Order
UPDATE $c {
    INSERT <Order><Date>1999-12-31</Date></Order> BEFORE $o
}`)
	if err == nil || !strings.Contains(err.Error(), "OrderColumn") {
		t.Errorf("expected order-column error, got %v", err)
	}
}

func TestIndexPredicateWithOrderColumn(t *testing.T) {
	s := openCust(t, Options{OrderColumn: true, Delete: PerTupleTrigger})
	// Delete the first order of each customer.
	n, err := s.ExecString(`
FOR $c IN document("custdb.xml")/CustDB/Customer,
    $o IN $c/Order
WHERE $o.index() = 0
UPDATE $c {
    DELETE $o
}`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("targets = %d, want 3", n)
	}
	doc, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, c := range doc.Root.ChildElementsNamed("Customer") {
		counts[c.FirstChildNamed("Address").FirstChildNamed("City").TextContent()] = len(c.ChildElementsNamed("Order"))
	}
	if counts["Seattle"] != 1 || counts["Portland"] != 0 {
		t.Errorf("order counts = %v", counts)
	}
}

func TestRenameInlined(t *testing.T) {
	dtd := xmltree.MustParseDTD(`
<!ELEMENT root (entry*)>
<!ELEMENT entry (name?, title?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT title (#PCDATA)>
`)
	doc, err := xmltree.ParseWith(`<root><entry><name>alpha</name></entry><entry><name>beta</name></entry></root>`,
		xmltree.ParseOptions{TrimText: true, DTD: dtd})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.DB.ResetStats()
	n, err := s.RenameInlined("entry", []string{"name"}, "title", "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("renamed %d tuples", n)
	}
	// §6.3: one statement, no new ids.
	if st := s.DB.Stats(); st.Statements != 1 {
		t.Errorf("rename used %d statements", st.Statements)
	}
	re, _ := s.Reconstruct()
	for _, e := range re.Root.ChildElementsNamed("entry") {
		if e.FirstChildNamed("name") != nil || e.FirstChildNamed("title") == nil {
			t.Error("rename did not move content")
		}
	}
}

func TestExecRenameViaQuery(t *testing.T) {
	dtd := xmltree.MustParseDTD(`
<!ELEMENT root (entry*)>
<!ELEMENT entry (name?, title?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT title (#PCDATA)>
`)
	doc, _ := xmltree.ParseWith(`<root><entry><name>alpha</name></entry></root>`,
		xmltree.ParseOptions{TrimText: true, DTD: dtd})
	s, err := Open(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecString(`
FOR $e IN document("d.xml")/root/entry,
    $n IN $e/name
UPDATE $e { RENAME $n TO title }`); err != nil {
		t.Fatal(err)
	}
	re, _ := s.Reconstruct()
	if re.Root.ChildElementsNamed("entry")[0].FirstChildNamed("title") == nil {
		t.Error("rename via query failed")
	}
}

func TestReplaceSubtrees(t *testing.T) {
	s := openCust(t, Options{Delete: PerTupleTrigger, Insert: TableInsert})
	lit := xmltree.MustParse(`<Order><Date>2002-02-02</Date></Order>`).Root
	n, err := s.ReplaceSubtrees("Order", "Status_v = 'shipped'", lit)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("replaced %d", n)
	}
	doc, _ := s.Reconstruct()
	var dates []string
	xmltree.Walk(doc.Root, func(e *xmltree.Element) bool {
		if e.Name == "Date" {
			dates = append(dates, e.TextContent())
		}
		return true
	})
	joined := strings.Join(dates, ",")
	if !strings.Contains(joined, "2002-02-02") || strings.Contains(joined, "2000-06-12") {
		t.Errorf("dates = %v", dates)
	}
}

func TestQuerySubtrees(t *testing.T) {
	s := openCust(t, Options{})
	stmt := mustParse(t, `
FOR $c IN document("custdb.xml")/CustDB/Customer[Name="John"]
RETURN $c`)
	subs, err := s.QuerySubtrees(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("returned %d subtrees", len(subs))
	}
	for _, e := range subs {
		if e.FirstChildNamed("Name").TextContent() != "John" {
			t.Error("wrong customer")
		}
	}
}

func mustParse(t testing.TB, q string) *xquery.Statement {
	t.Helper()
	s, err := xquery.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenRequiresDTD(t *testing.T) {
	doc := xmltree.MustParse(`<a><b/></a>`)
	if _, err := Open(doc, Options{}); err == nil {
		t.Error("Open without DTD should fail")
	}
}

func TestUnsupportedTranslations(t *testing.T) {
	s := openCust(t, Options{})
	bad := []string{
		// LET unsupported relationally.
		`FOR $c IN document("x")/CustDB LET $o := $c/Customer UPDATE $c { DELETE $o }`,
		// index() without order column.
		`FOR $c IN document("x")/CustDB/Customer WHERE $c.index() = 0 UPDATE $c { DELETE $c }`,
		// Wrong root.
		`FOR $c IN document("x")/Bogus/Customer UPDATE $c { INSERT new_attribute(a,"1") }`,
	}
	for _, q := range bad {
		if _, err := s.ExecString(q); err == nil {
			t.Errorf("ExecString(%q) succeeded, want error", q)
		}
	}
}
