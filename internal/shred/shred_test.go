package shred

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/relational"
	"repro/internal/testdocs"
	"repro/internal/xmltree"
)

func custMapping(t testing.TB, opts Options) *Mapping {
	dtd := xmltree.MustParseDTD(testdocs.CustDTD)
	m, err := BuildMapping(dtd, "CustDB", opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInliningDecisions verifies the paper's example: the Figure 4 DTD
// produces exactly the tables CustDB, Customer, Order, and OrderLine, each
// with id and parentId, with 1:1 children inlined.
func TestInliningDecisions(t *testing.T) {
	m := custMapping(t, Options{})
	want := []string{"CustDB", "Customer", "Order", "OrderLine"}
	if len(m.TableOrder) != len(want) {
		t.Fatalf("tables = %v, want %v", m.TableOrder, want)
	}
	for i, e := range want {
		if m.TableOrder[i] != e {
			t.Errorf("table %d = %s, want %s", i, m.TableOrder[i], e)
		}
	}
	// Customer inlines Name and Address (City, State).
	cust := m.Table("Customer")
	var colNames []string
	for _, c := range cust.Columns {
		colNames = append(colNames, c.Name)
	}
	joined := strings.Join(colNames, ",")
	for _, want := range []string{"Name_v", "Address_City_v", "Address_State_v"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Customer columns %v missing %s", colNames, want)
		}
	}
	// Order is not inlined (1:n) and its SQL name avoids the keyword.
	ord := m.Table("Order")
	if ord == nil {
		t.Fatal("Order has no table")
	}
	if strings.EqualFold(ord.Name, "ORDER") {
		t.Errorf("Order table name %q collides with SQL keyword", ord.Name)
	}
	if ord.Parent != "Customer" {
		t.Errorf("Order parent = %q", ord.Parent)
	}
	if ol := m.Table("OrderLine"); ol == nil || ol.Parent != "Order" {
		t.Error("OrderLine parentage wrong")
	}
}

func TestMappingParentChainAndDescendants(t *testing.T) {
	m := custMapping(t, Options{})
	chain := m.ParentChain("OrderLine")
	want := []string{"CustDB", "Customer", "Order", "OrderLine"}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
	desc := m.Descendants("Customer")
	if len(desc) != 3 || desc[0] != "Customer" || desc[2] != "OrderLine" {
		t.Errorf("descendants = %v", desc)
	}
	if m.ParentChain("Name") != nil {
		t.Error("inlined element should have no chain")
	}
}

func TestTableForPath(t *testing.T) {
	m := custMapping(t, Options{})
	elem, inlined, err := m.TableForPath([]string{"CustDB", "Customer", "Address", "City"})
	if err != nil {
		t.Fatal(err)
	}
	if elem != "Customer" || len(inlined) != 2 || inlined[0] != "Address" {
		t.Errorf("TableForPath = %s, %v", elem, inlined)
	}
	elem, inlined, err = m.TableForPath([]string{"CustDB", "Customer", "Order"})
	if err != nil {
		t.Fatal(err)
	}
	if elem != "Order" || inlined != nil {
		t.Errorf("TableForPath = %s, %v", elem, inlined)
	}
	if _, _, err := m.TableForPath([]string{"Wrong"}); err == nil {
		t.Error("bad root should fail")
	}
}

func TestShredAndLoad(t *testing.T) {
	m := custMapping(t, Options{})
	db := relational.NewDB()
	doc := testdocs.Cust()
	ds, err := Load(db, m, doc)
	if err != nil {
		t.Fatal(err)
	}
	// 1 CustDB + 3 Customers + 3 Orders + 4 OrderLines = 11 tuples.
	if got := ds.TupleCount(); got != 11 {
		t.Errorf("tuples = %d, want 11", got)
	}
	if got := db.RowCount("Customer"); got != 3 {
		t.Errorf("Customer rows = %d", got)
	}
	// Inlined values landed in the parent tuple.
	rows, err := db.Query(`SELECT Name_v, Address_City_v FROM Customer WHERE Address_State_v = 'CA'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0] != relational.Text("John") || rows.Data[0][1] != relational.Text("Sacramento") {
		t.Errorf("CA customer = %v", rows.Data)
	}
	// parentId linkage: John(Seattle)'s orders.
	rows, err = db.Query(`
SELECT COUNT(*) FROM Order_t O, Customer C
WHERE O.parentId = C.id AND C.Address_City_v = 'Seattle'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != relational.Int(2) {
		t.Errorf("Seattle John has %v orders, want 2", rows.Data[0][0])
	}
}

func TestReconstructRoundTrip(t *testing.T) {
	m := custMapping(t, Options{})
	db := relational.NewDB()
	doc := testdocs.Cust()
	if _, err := Load(db, m, doc); err != nil {
		t.Fatal(err)
	}
	re, err := Reconstruct(db, m)
	if err != nil {
		t.Fatal(err)
	}
	// The customer DTD has no mixed ordering issues, so the round trip is
	// exact up to serialization.
	if got, want := re.String(), doc.String(); got != want {
		t.Errorf("round trip mismatch:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestReconstructWithOrderColumn(t *testing.T) {
	m := custMapping(t, Options{OrderColumn: true})
	db := relational.NewDB()
	doc := testdocs.Cust()
	if _, err := Load(db, m, doc); err != nil {
		t.Fatal(err)
	}
	re, err := Reconstruct(db, m)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.String(), doc.String(); got != want {
		t.Errorf("ordered round trip mismatch:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestPresenceFlagDistinguishesEmptyFromAbsent(t *testing.T) {
	dtd := xmltree.MustParseDTD(`
<!ELEMENT root (item*)>
<!ELEMENT item (wrapper?)>
<!ELEMENT wrapper (note?)>
<!ELEMENT note (#PCDATA)>
`)
	m, err := BuildMapping(dtd, "root", Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDB()
	doc := xmltree.MustParse(`<root><item><wrapper/></item><item/></root>`)
	doc.DTD = dtd
	if _, err := Load(db, m, doc); err != nil {
		t.Fatal(err)
	}
	re, err := Reconstruct(db, m)
	if err != nil {
		t.Fatal(err)
	}
	items := re.Root.ChildElementsNamed("item")
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].FirstChildNamed("wrapper") == nil {
		t.Error("present empty wrapper lost (presence flag not honored)")
	}
	if items[1].FirstChildNamed("wrapper") != nil {
		t.Error("absent wrapper materialized")
	}
}

func TestBioMappingWithReferences(t *testing.T) {
	dtd := xmltree.MustParseDTD(testdocs.BioDTD)
	m, err := BuildMapping(dtd, "db", Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDB()
	doc := testdocs.Bio()
	if _, err := Load(db, m, doc); err != nil {
		t.Fatal(err)
	}
	re, err := Reconstruct(db, m)
	if err != nil {
		t.Fatal(err)
	}
	// IDREFS survive the round trip as ordered lists.
	lalab := re.ByID("lalab")
	if lalab == nil {
		t.Fatal("lalab lost")
	}
	mg := lalab.Ref("managers")
	if mg == nil || len(mg.IDs) != 2 || mg.IDs[0] != "smith1" || mg.IDs[1] != "jones1" {
		t.Errorf("managers = %+v", mg)
	}
	// Multi-parent element lab has a single shared table.
	if m.Table("lab") == nil {
		t.Fatal("lab has no table")
	}
	labRows := db.RowCount(m.Table("lab").Name)
	if labRows != 3 {
		t.Errorf("lab table rows = %d, want 3 (shared across parents)", labRows)
	}
}

// TestStoredTextDoesNotPinSource: xmltree.Parse hands out names, attribute
// values and text as substrings of the source, so a stored TEXT cell that
// aliased one would keep the whole parsed file alive. Both mappings must
// store copies: no cell may point into the source's byte range.
func TestStoredTextDoesNotPinSource(t *testing.T) {
	src := strings.Clone(testdocs.BioXML) // a heap buffer with a known range
	dtd := xmltree.MustParseDTD(testdocs.BioDTD)
	doc, err := xmltree.ParseWith(src, xmltree.ParseOptions{TrimText: true, DTD: dtd})
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	checkTable := func(db *relational.DB, name string) int {
		rows, err := db.Query("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for r, row := range rows.Data {
			for c, v := range row {
				s, ok := v.Text()
				if !ok || s == "" {
					continue
				}
				n++
				if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= lo && p < hi {
					t.Errorf("%s row %d col %d (%q) points into the parsed source", name, r, c, s)
				}
			}
		}
		return n
	}

	m, err := BuildMapping(dtd, "db", Options{})
	if err != nil {
		t.Fatal(err)
	}
	inl := relational.NewDB()
	if _, err := Load(inl, m, doc); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, elem := range m.TableOrder {
		cells += checkTable(inl, m.Tables[elem].Name)
	}
	edge := relational.NewDB()
	if _, err := LoadEdge(edge, doc); err != nil {
		t.Fatal(err)
	}
	cells += checkTable(edge, "Edge")
	if cells < 40 {
		t.Fatalf("checked %d TEXT cells, implausibly few", cells)
	}
}

func TestRecursiveDTDGetsOwnTable(t *testing.T) {
	dtd := xmltree.MustParseDTD(`
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
`)
	m, err := BuildMapping(dtd, "part", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.TableOrder) != 1 {
		t.Fatalf("tables = %v", m.TableOrder)
	}
	pt := m.Table("part")
	if len(pt.ChildTables) != 1 || pt.ChildTables[0] != "part" {
		t.Errorf("recursive child tables = %v", pt.ChildTables)
	}
	db := relational.NewDB()
	doc := xmltree.MustParse(`<part><name>a</name><part><name>b</name><part><name>c</name></part></part></part>`)
	doc.DTD = dtd
	ds, err := Load(db, m, doc)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TupleCount() != 3 {
		t.Errorf("tuples = %d, want 3", ds.TupleCount())
	}
	// The compiled shape stops at the recursive step — part below part
	// stores no column in its parent's tuple — so both readers terminate:
	// the whole document round-trips, and each tuple alone builds its part
	// and inlined name without descending.
	re, err := Reconstruct(db, m)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.String(), doc.String(); got != want {
		t.Errorf("round trip:\ngot:  %s\nwant: %s", got, want)
	}
	rows, err := db.Query("SELECT " + strings.Join(pt.ColumnNames(), ", ") + " FROM " + pt.Name + " ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows.Data {
		e, err := m.ElementFromRow("part", row[2:])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := xmltree.Serialize(e), "<part><name>"+string(rune('a'+i))+"</name></part>"; got != want {
			t.Errorf("tuple %d builds %s, want %s", i, got, want)
		}
	}
}

func TestShredRejectsUnknownElement(t *testing.T) {
	m := custMapping(t, Options{})
	doc := xmltree.MustParse(`<CustDB><Bogus/></CustDB>`)
	if _, err := NewShredder(m).Shred(doc); err == nil {
		t.Error("unknown element should fail shredding")
	}
	other := xmltree.MustParse(`<Other/>`)
	if _, err := NewShredder(m).Shred(other); err == nil {
		t.Error("wrong root should fail shredding")
	}
}

func TestInsertSQLForm(t *testing.T) {
	m := custMapping(t, Options{})
	sh := NewShredder(m)
	ds, err := sh.Shred(testdocs.Cust())
	if err != nil {
		t.Fatal(err)
	}
	stmts := m.InsertSQL(ds)
	if len(stmts) != ds.TupleCount() {
		t.Errorf("%d statements for %d tuples", len(stmts), ds.TupleCount())
	}
	// The statements must execute against a fresh schema.
	db := relational.NewDB()
	for _, sql := range m.CreateTablesSQL() {
		db.MustExec(sql)
	}
	for _, sql := range stmts {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if got := db.RowCount("Customer"); got != 3 {
		t.Errorf("customers = %d", got)
	}
}

func TestEdgeRoundTrip(t *testing.T) {
	db := relational.NewDB()
	doc := testdocs.Cust()
	n, err := LoadEdge(db, doc)
	if err != nil {
		t.Fatal(err)
	}
	if n < 30 {
		t.Errorf("edge tuples = %d, implausibly few", n)
	}
	re, err := ReconstructEdge(db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.String(), doc.String(); got != want {
		t.Errorf("edge round trip mismatch:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestEdgePreservesMixedContentOrder(t *testing.T) {
	db := relational.NewDB()
	doc := xmltree.MustParse(`<p>alpha<b>beta</b>gamma<i>delta</i></p>`)
	if _, err := LoadEdge(db, doc); err != nil {
		t.Fatal(err)
	}
	re, err := ReconstructEdge(db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.String(), doc.String(); got != want {
		t.Errorf("mixed content order lost:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestEdgeFragmentationVersusInlining(t *testing.T) {
	// The paper's motivation for inlining: the Edge approach fragments each
	// element into many tuples. Confirm the tuple-count gap.
	m := custMapping(t, Options{})
	inlDB := relational.NewDB()
	ds, err := Load(inlDB, m, testdocs.Cust())
	if err != nil {
		t.Fatal(err)
	}
	edgeDB := relational.NewDB()
	edgeCount, err := LoadEdge(edgeDB, testdocs.Cust())
	if err != nil {
		t.Fatal(err)
	}
	if edgeCount <= 2*ds.TupleCount() {
		t.Errorf("edge tuples (%d) should far exceed inlined tuples (%d)", edgeCount, ds.TupleCount())
	}
}
