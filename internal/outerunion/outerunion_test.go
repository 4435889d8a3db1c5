package outerunion

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/testdocs"
	"repro/internal/xmltree"
)

func loadCust(t testing.TB) (*relational.DB, *shred.Mapping) {
	t.Helper()
	dtd := xmltree.MustParseDTD(testdocs.CustDTD)
	m, err := shred.BuildMapping(dtd, "CustDB", shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDB()
	if _, err := shred.Load(db, m, testdocs.Cust()); err != nil {
		t.Fatal(err)
	}
	return db, m
}

func TestPlanLayout(t *testing.T) {
	_, m := loadCust(t)
	p, err := BuildPlan(m, "Customer")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Customer", "Order", "OrderLine"}
	if len(p.Branches) != 3 {
		t.Fatalf("branches = %v", p.Branches)
	}
	for i, e := range want {
		if p.Branches[i].Elem != e {
			t.Errorf("branch %d = %s", i, p.Branches[i].Elem)
		}
	}
	if p.Branches[0].ID != 0 || p.Branches[0].Parent != -1 {
		t.Errorf("customer branch = %+v", p.Branches[0])
	}
	if p.Branches[2].Parent != 1 {
		t.Errorf("parent of OrderLine = %d", p.Branches[2].Parent)
	}
	if p.Width <= 3 {
		t.Errorf("width = %d", p.Width)
	}
}

// siblingsDoc has one element, shelf, with three child tables, each with a
// child table of its own: the reversed-sibling key order at two depths,
// beyond DBLP's two sibling tables.
func siblingsDoc() *xmltree.Document {
	dtd := xmltree.MustParseDTD(`
<!ELEMENT lib (shelf*)>
<!ELEMENT shelf (label, book*, map*, disc*)>
<!ELEMENT label (#PCDATA)>
<!ELEMENT book (btitle, note*)>
<!ELEMENT btitle (#PCDATA)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT map (mtitle, pin*)>
<!ELEMENT mtitle (#PCDATA)>
<!ELEMENT pin (#PCDATA)>
<!ELEMENT disc (dtitle, track*)>
<!ELEMENT dtitle (#PCDATA)>
<!ELEMENT track (#PCDATA)>
`)
	doc, err := xmltree.ParseWith(`<lib>
<shelf><label>s1</label>
  <book><btitle>b1</btitle><note>n1</note><note>n2</note></book>
  <book><btitle>b2</btitle></book>
  <map><mtitle>m1</mtitle><pin>p1</pin><pin>p2</pin></map>
  <disc><dtitle>d1</dtitle><track>t1</track></disc>
  <disc><dtitle>d2</dtitle><track>t2</track><track>t3</track></disc>
</shelf>
<shelf><label>s2</label>
  <map><mtitle>m2</mtitle></map>
  <disc><dtitle>d3</dtitle><track>t4</track></disc>
</shelf>
<shelf><label>s3</label><book><btitle>b3</btitle><note>n3</note></book></shelf>
</lib>`, xmltree.ParseOptions{TrimText: true, DTD: dtd})
	if err != nil {
		panic(err)
	}
	return doc
}

// TestSQLIsFigure5Shaped pins the statement's shape: Q1 is the only CTE and
// tests the condition once (§5.2); every other table is one UNION ALL branch
// that joins Q1 to its parentId chain and names no other Q; the keys are the
// id columns in pre-order with sibling tables reversed.
func TestSQLIsFigure5Shaped(t *testing.T) {
	_, m := loadCust(t)
	p, err := BuildPlan(m, "Customer")
	if err != nil {
		t.Fatal(err)
	}
	sql := p.SQL("T.Name_v = 'John'")
	if !strings.HasPrefix(sql, "WITH Q1(") || strings.Count(sql, " AS (") != 1 {
		t.Errorf("want Q1 as the only CTE:\n%s", sql)
	}
	// Conditions appear only in the base subquery (§5.2).
	if strings.Count(sql, "Name_v = 'John'") != 1 {
		t.Errorf("value condition not tested exactly once:\n%s", sql)
	}
	if n := strings.Count(sql, " UNION ALL (SELECT "); n != len(p.Branches)-1 {
		t.Errorf("%d UNION ALL branches, want %d:\n%s", n, len(p.Branches)-1, sql)
	}
	for _, q := range regexp.MustCompile(`\bQ[0-9]+\b`).FindAllString(sql, -1) {
		if q != "Q1" {
			t.Errorf("branch names %s:\n%s", q, sql)
		}
	}

	doc := siblingsDoc()
	m, err = shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p, err = BuildPlan(m, "shelf"); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, elem := range []string{"shelf", "disc", "track", "map", "pin", "book", "note"} {
		for _, b := range p.Branches {
			if b.Elem == elem {
				keys = append(keys, p.ColNames[b.ID])
			}
		}
	}
	if want := " ORDER BY " + strings.Join(keys, ", "); !strings.HasSuffix(p.SQL(""), want) {
		t.Errorf("want keys%s:\n%s", want, p.SQL(""))
	}
}

// TestOuterUnionRowsScanned pins the outer union's cost law. Each branch
// reads the rows on its join path: Q1, then one parentId probe per ancestor
// tuple down to its own table. Fixed{sf,4,4} stores sf·(1+4+16+64) = 85·sf
// tuples; the branches read 2·sf (the table into Q1, Q1 into the union),
// 5·sf, 21·sf and 85·sf rows, 113·sf in all (1.33× the tuples at every sf),
// with one full scan of e1, four of Q1, and sf + 5·sf + 21·sf probes.
func TestOuterUnionRowsScanned(t *testing.T) {
	for _, c := range []struct {
		sf, rows, probes int64
	}{{10, 1130, 270}, {40, 4520, 1080}} {
		doc := datagen.Fixed(datagen.FixedParams{ScalingFactor: int(c.sf), Depth: 4, Fanout: 4, Seed: 1})
		m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{OrderColumn: true})
		if err != nil {
			t.Fatal(err)
		}
		db := relational.NewDB()
		if _, err := shred.Load(db, m, doc); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		subs, err := Query(db, m, "e1", "")
		if err != nil {
			t.Fatal(err)
		}
		st := db.Stats()
		t.Logf("Fixed{%d,4,4}: tuples=%d rows_scanned=%d full_scans=%d index_probes=%d sort_passes=%d",
			c.sf, 85*c.sf, st.RowsScanned, st.FullScans, st.IndexProbes, st.SortPasses)
		if len(subs) != int(c.sf) || st.RowsScanned != c.rows || st.FullScans != 5 || st.IndexProbes != c.probes {
			t.Errorf("Fixed{%d,4,4}: %d subtrees, rows scanned %d, full scans %d, index probes %d; want %d, %d, 5, %d",
				c.sf, len(subs), st.RowsScanned, st.FullScans, st.IndexProbes, c.sf, c.rows, c.probes)
		}
	}
}

// TestFeedRejectsSortViolation feeds reordered wide-row streams through
// Plan.Reconstruct: a child whose parent is not its parent branch's last
// row must be an error, never a panic or a misplaced element.
func TestFeedRejectsSortViolation(t *testing.T) {
	db, m := loadCust(t)
	p, err := BuildPlan(m, "Customer")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(p.SQL(""))
	if err != nil {
		t.Fatal(err)
	}
	// The first order with lines, and the row of the next order after it.
	var line, next int
	for i, row := range rows.Data {
		if bi, _, _ := p.BranchOf(row); bi == 2 && line == 0 {
			line = i
		} else if bi == 1 && line > 0 {
			next = i
			break
		}
	}
	if line == 0 || next == 0 {
		t.Fatal("no order with lines followed by another order")
	}
	streams := map[string][][]relational.Value{
		"line after the next order": append(append(append([][]relational.Value{}, rows.Data[:line]...),
			rows.Data[line+1:next+1]...), rows.Data[line]),
		"order before any customer":    {rows.Data[1], rows.Data[0]},
		"line after the next customer": {rows.Data[0], rows.Data[1], rows.Data[len(rows.Data)-1], rows.Data[line]},
		"all-NULL keys":                {make([]relational.Value, p.Width)},
	}
	for name, data := range streams {
		if subs, err := p.Reconstruct(&relational.Rows{Data: data}); err == nil {
			t.Errorf("%s: got %d subtrees, want an error", name, len(subs))
		}
	}
}

// TestExample6OuterUnion runs the paper's Example 6 through the full
// pipeline: SQL generation, sorted stream, reconstruction.
func TestExample6OuterUnion(t *testing.T) {
	db, m := loadCust(t)
	subs, err := Query(db, m, "Customer", "T.Name_v = 'John'")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("got %d subtrees, want 2 Johns", len(subs))
	}
	// The Seattle John has 2 orders with 3 lines total.
	var seattle *Subtree
	for _, s := range subs {
		if s.Root.FirstChildNamed("Address").FirstChildNamed("City").TextContent() == "Seattle" {
			seattle = s
		}
	}
	if seattle == nil {
		t.Fatal("Seattle John missing")
	}
	orders := seattle.Root.ChildElementsNamed("Order")
	if len(orders) != 2 {
		t.Fatalf("orders = %d", len(orders))
	}
	lines := 0
	for _, o := range orders {
		lines += len(o.ChildElementsNamed("OrderLine"))
	}
	if lines != 3 {
		t.Errorf("lines = %d", lines)
	}
	// Inlined content is present.
	if seattle.Root.FirstChildNamed("Name").TextContent() != "John" {
		t.Error("inlined Name missing")
	}
	if got := orders[0].FirstChildNamed("Status").TextContent(); got != "ready" {
		t.Errorf("status = %q", got)
	}
	// ID sets per table are recorded for the insert methods.
	if len(seattle.IDs["Customer"]) != 1 || len(seattle.IDs["Order"]) != 2 || len(seattle.IDs["OrderLine"]) != 3 {
		t.Errorf("id sets = %v", seattle.IDs)
	}
}

// TestReconstructionMatchesDirectReconstruct cross-checks the two readers:
// for every table element of every document, under both storage orders,
// the outer union's subtrees must serialize byte for byte like the same
// elements of shred.Reconstruct's document. Bio brings IDREF/IDREFS lists,
// presence flags and a shared table; Fixed and DBLP bring depth and bushy
// child tables; siblings brings three sibling tables, each with a child
// table.
func TestReconstructionMatchesDirectReconstruct(t *testing.T) {
	docs := []struct {
		name string
		doc  *xmltree.Document
		// noPlan names the target whose subtree reaches one table twice,
		// which the outer union rejects: Bio's lab table is shared by db
		// and university.
		noPlan string
	}{
		{"cust", testdocs.Cust(), ""},
		{"bio", testdocs.Bio(), "db"},
		{"fixed", datagen.Fixed(datagen.FixedParams{ScalingFactor: 5, Depth: 3, Fanout: 3, Seed: 1}), ""},
		{"dblp", datagen.DBLP(datagen.DBLPParams{Conferences: 3, PubsPerConf: 6, Seed: 1}), ""},
		{"siblings", siblingsDoc(), ""},
	}
	for _, d := range docs {
		for _, order := range []bool{false, true} {
			m, err := shred.BuildMapping(d.doc.DTD, d.doc.Root.Name, shred.Options{OrderColumn: order})
			if err != nil {
				t.Fatal(err)
			}
			db := relational.NewDB()
			if _, err := shred.Load(db, m, d.doc); err != nil {
				t.Fatal(err)
			}
			direct, err := shred.Reconstruct(db, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, elem := range m.TableOrder {
				subs, err := Query(db, m, elem, "")
				if elem == d.noPlan {
					if err == nil {
						t.Errorf("%s order=%v: outer union of %s should be rejected", d.name, order, elem)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s order=%v: %s: %v", d.name, order, elem, err)
				}
				var want []string
				xmltree.Walk(direct.Root, func(e *xmltree.Element) bool {
					if e.Name == elem {
						want = append(want, xmltree.Serialize(e))
					}
					return true
				})
				if len(subs) != len(want) {
					t.Fatalf("%s order=%v: %s: %d subtrees, want %d", d.name, order, elem, len(subs), len(want))
				}
				for i, st := range subs {
					if got := xmltree.Serialize(st.Root); got != want[i] {
						t.Errorf("%s order=%v: %s subtree %d differs:\ngot:  %s\nwant: %s", d.name, order, elem, i, got, want[i])
					}
				}
			}
		}
	}
}

// TestRecursiveDTDHasNoOuterUnion: a recursive table would need one branch
// per level, so the plan is an error rather than unbounded recursion.
func TestRecursiveDTDHasNoOuterUnion(t *testing.T) {
	dtd := xmltree.MustParseDTD(`
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
`)
	m, err := shred.BuildMapping(dtd, "part", shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(m, "part"); err == nil {
		t.Error("recursive table should have no outer union plan")
	}
}

func TestEmptyResult(t *testing.T) {
	db, m := loadCust(t)
	subs, err := Query(db, m, "Customer", "T.Name_v = 'Nobody'")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Errorf("got %d subtrees", len(subs))
	}
}

func TestLeafTarget(t *testing.T) {
	db, m := loadCust(t)
	subs, err := Query(db, m, "OrderLine", "T.ItemName_v = 'tire'")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("tire lines = %d", len(subs))
	}
	for _, s := range subs {
		if s.Root.FirstChildNamed("ItemName").TextContent() != "tire" {
			t.Error("wrong line")
		}
	}
}

func TestBadTarget(t *testing.T) {
	_, m := loadCust(t)
	if _, err := BuildPlan(m, "Name"); err == nil {
		t.Error("inlined element should have no plan")
	}
}
