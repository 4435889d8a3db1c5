package outerunion

import (
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
	if len(p.Tables) != 3 {
		t.Fatalf("tables = %v", p.Tables)
	}
	for i, e := range want {
		if p.Tables[i] != e {
			t.Errorf("table %d = %s", i, p.Tables[i])
		}
	}
	if p.IDCol["Customer"] != 0 {
		t.Errorf("customer id col = %d", p.IDCol["Customer"])
	}
	if p.ParentOf["OrderLine"] != "Order" {
		t.Errorf("parent of OrderLine = %s", p.ParentOf["OrderLine"])
	}
	if p.Width <= 3 {
		t.Errorf("width = %d", p.Width)
	}
}

func TestSQLIsFigure5Shaped(t *testing.T) {
	_, m := loadCust(t)
	p, err := BuildPlan(m, "Customer")
	if err != nil {
		t.Fatal(err)
	}
	sql := p.SQL("T.Name_v = 'John'")
	for _, frag := range []string{"WITH Q1(", "Q2(", "Q3(", "UNION ALL", "ORDER BY", "T.Name_v = 'John'"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("SQL missing %q:\n%s", frag, sql)
		}
	}
	// Conditions appear only in the base subquery (§5.2).
	if strings.Count(sql, "Name_v = 'John'") != 1 {
		t.Errorf("value condition duplicated:\n%s", sql)
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
// child tables.
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
