package engine

import (
	"testing"

	"repro/internal/update"
	"repro/internal/xmltree"
)

// TestReconstructedDocumentTakesDOMUpdates: Store.Reconstruct builds its
// elements from a slab with each child list reserved at its exact size, so
// the DOM mutators see full lists side by side in shared arrays. The same
// sequence of internal/update operations — inserts that overflow a reserve,
// positional inserts, deletes, renames, replaces and copies of attached
// subtrees — applied to the reconstructed document and to the parsed
// source must leave the two serializing identically after every step.
func TestReconstructedDocumentTakesDOMUpdates(t *testing.T) {
	src := custDoc(t)
	rebuilt, err := openCust(t, Options{}).Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rebuilt.String(), src.String(); got != want {
		t.Fatalf("reconstructed document differs from the source:\n%s\nwant\n%s", got, want)
	}
	customer := func(d *xmltree.Document, i int) *xmltree.Element { return d.Root.ChildElements()[i] }
	order := func(d *xmltree.Document, c, o int) *xmltree.Element {
		return customer(d, c).ChildElementsNamed("Order")[o]
	}
	newOrder := func(date string) *xmltree.Element {
		o := xmltree.NewElement("Order")
		d := xmltree.NewElement("Date")
		d.AppendChild(xmltree.NewText(date))
		o.AppendChild(d)
		return o
	}
	steps := []struct {
		name string
		// ops returns the update's target in d and its operations.
		ops func(d *xmltree.Document) (*xmltree.Element, []update.Op)
	}{
		{"append an order past the reserve", func(d *xmltree.Document) (*xmltree.Element, []update.Op) {
			return customer(d, 0), []update.Op{update.Insert{Content: update.ElementContent{Element: newOrder("2001-01-01")}}}
		}},
		{"insert an order before the first", func(d *xmltree.Document) (*xmltree.Element, []update.Op) {
			c := customer(d, 1)
			return c, []update.Op{update.InsertBefore{Ref: c.FirstChildNamed("Order"), Content: update.ElementContent{Element: newOrder("1999-12-31")}}}
		}},
		{"insert text after a line's quantity", func(d *xmltree.Document) (*xmltree.Element, []update.Op) {
			line := order(d, 0, 0).ChildElementsNamed("OrderLine")[1]
			return line, []update.Op{update.InsertAfter{Ref: line.FirstChildNamed("Qty"), Content: update.PCDATA{Data: "note"}}}
		}},
		{"delete a status and rename a date", func(d *xmltree.Document) (*xmltree.Element, []update.Op) {
			o := order(d, 0, 1)
			return o, []update.Op{update.Delete{Child: o.FirstChildNamed("Status")}, update.Rename{Child: o.FirstChildNamed("Date"), Name: "Shipped"}}
		}},
		{"replace an address and add an attribute", func(d *xmltree.Document) (*xmltree.Element, []update.Op) {
			c := customer(d, 2)
			addr := xmltree.NewElement("Address")
			addr.AppendChild(xmltree.NewText("unknown"))
			return c, []update.Op{
				update.Replace{Child: c.FirstChildNamed("Address"), Content: update.ElementContent{Element: addr}},
				update.Insert{Content: update.NewAttribute{Name: "vip", Value: "yes"}},
			}
		}},
		{"copy an attached order to another customer", func(d *xmltree.Document) (*xmltree.Element, []update.Op) {
			return customer(d, 2), []update.Op{update.Insert{Content: update.ElementContent{Element: order(d, 0, 0)}}}
		}},
		{"delete a whole order", func(d *xmltree.Document) (*xmltree.Element, []update.Op) {
			c := customer(d, 0)
			return c, []update.Op{update.Delete{Child: c.ChildElementsNamed("Order")[1]}}
		}},
	}
	for _, st := range steps {
		for _, d := range []*xmltree.Document{src, rebuilt} {
			target, ops := st.ops(d)
			if err := update.NewExecutor(update.Ordered, d).Apply(target, ops); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		if got, want := rebuilt.String(), src.String(); got != want {
			t.Fatalf("%s: reconstructed document\n%s\nwant\n%s", st.name, got, want)
		}
	}
}
