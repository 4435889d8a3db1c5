package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/relational"
	"repro/internal/xmltree"
)

// storedPaths recomputes the ASR from the data tables alone: one
// left-complete path per leaf tuple, read from every table's
// (id, parentId), rendered with depth levels.
func storedPaths(t *testing.T, s *Store, depth int) []string {
	t.Helper()
	kids := make(map[string]map[int64][]int64)
	for _, elem := range s.M.TableOrder {
		kids[elem] = make(map[int64][]int64)
		for _, r := range mustQuery(t, s, "SELECT id, parentId FROM "+s.M.Table(elem).Name).Data {
			pid, _ := r[1].Int()
			kids[elem][pid] = append(kids[elem][pid], r[0].MustInt())
		}
	}
	var out []string
	var walk func(elem string, path []relational.Value)
	walk = func(elem string, path []relational.Value) {
		id := path[len(path)-1].MustInt()
		leaf := true
		for _, ce := range s.M.Table(elem).ChildTables {
			for _, cid := range kids[ce][id] {
				leaf = false
				walk(ce, append(path, relational.Int(cid)))
			}
		}
		if leaf {
			row := make([]relational.Value, depth)
			copy(row, path)
			out = append(out, fmt.Sprint(row))
		}
	}
	for _, id := range kids[s.M.Root][0] {
		walk(s.M.Root, []relational.Value{relational.Int(id)})
	}
	slices.Sort(out)
	return out
}

// asrPaths reads the ASR's paths, mark excluded, and fails on a mark left
// set.
func asrPaths(t *testing.T, s *Store) (paths []string, depth int) {
	t.Helper()
	rows := mustQuery(t, s, "SELECT * FROM ASR")
	depth = len(rows.Cols) - 1
	for _, r := range rows.Data {
		if m, _ := r[depth].Int(); m != 0 {
			t.Errorf("ASR path %v keeps its mark", r)
		}
		paths = append(paths, fmt.Sprint(r[:depth]))
	}
	slices.Sort(paths)
	return paths, depth
}

// TestASRMatchesStoredTuples is the ASR's oracle: under every pair of
// strategies that keeps an ASR, with and without the order column, each
// update leaves the ASR holding exactly the left-complete paths of the
// stored tuples, as a multiset, and no mark set. The operations cover both
// path writers (tuple insert and literal content walk the new tuples;
// table and ASR insert copy paths under an offset), the ASR delete's
// left-completeness repair and the orphan purge after trigger and cascade
// deletes.
func TestASRMatchesStoredTuples(t *testing.T) {
	var configs []Options
	for _, in := range allInsertMethods {
		configs = append(configs, Options{Delete: ASRDelete, Insert: in})
	}
	for _, del := range allDeleteMethods[:3] {
		configs = append(configs, Options{Delete: del, Insert: ASRInsert})
	}
	newOrder := xmltree.MustParse(`<Order><Date>2002-02-02</Date><Status>new</Status>` +
		`<OrderLine><ItemName>nail</ItemName><Qty>9</Qty></OrderLine>` +
		`<OrderLine><ItemName>glue</ItemName><Qty>1</Qty></OrderLine></Order>`).Root
	for _, base := range configs {
		for _, order := range []bool{false, true} {
			o := base
			o.OrderColumn = order
			name := fmt.Sprintf("%s/%s/order=%v", o.Delete, o.Insert, order)
			t.Run(name, func(t *testing.T) {
				s := openCust(t, o)
				id := func(sql string) int64 {
					t.Helper()
					return mustQuery(t, s, sql).Data[0][0].MustInt()
				}
				mary := id("SELECT id FROM Customer WHERE Name_v = 'Mary'")
				root := id("SELECT id FROM CustDB")
				ops := []struct {
					name string
					run  func() (int, error)
				}{
					{"copy an order to another customer", func() (int, error) {
						return s.CopySubtrees("Order", "Date_v = '2000-05-01'", mary)
					}},
					{"copy a customer under the root", func() (int, error) {
						return s.CopySubtrees("Customer", "Address_City_v = 'Seattle'", root)
					}},
					{"insert literal content", func() (int, error) { return s.ExecString(insertOrder) }},
					{"replace an order", func() (int, error) {
						return s.ReplaceSubtrees("Order", "Status_v = 'shipped'", newOrder)
					}},
					{"delete an order line", func() (int, error) {
						return s.DeleteSubtrees("OrderLine", "ItemName_v = 'hammer'")
					}},
					{"delete a customer", func() (int, error) {
						return s.DeleteSubtrees("Customer", "Address_City_v = 'Portland'")
					}},
				}
				for _, op := range ops {
					if n, err := op.run(); err != nil || n == 0 {
						t.Fatalf("%s: %d targets, err %v", op.name, n, err)
					}
					got, depth := asrPaths(t, s)
					if want := storedPaths(t, s, depth); !slices.Equal(got, want) {
						t.Fatalf("after %s: ASR paths\n%v\nwant the stored tuples' paths\n%v", op.name, got, want)
					}
				}
			})
		}
	}
}
