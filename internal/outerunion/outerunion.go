// Package outerunion implements the Sorted Outer Union method (§5.2, after
// Shanmugasundaram et al., VLDB '00): a subtree stored across multiple
// tables is returned as one sorted stream of wide, NULL-padded tuples —
// parents before children — and reassembled into XML at the client.
package outerunion

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

// Plan describes the wide-tuple layout of an outer union query over a
// subtree rooted at Target.
type Plan struct {
	M      *shred.Mapping
	Target string
	// Tables lists the subtree's table elements in pre-order.
	Tables []string
	// IDCol maps a table element to the index of its id column in the wide
	// tuple.
	IDCol map[string]int
	// DataCols maps a table element to the wide-tuple indexes of its data
	// columns (aligned with TableMap.Columns).
	DataCols map[string][]int
	// ParentOf maps a table element to its parent within the subtree ("" at
	// the target level).
	ParentOf map[string]string
	// Width is the wide tuple's column count.
	Width int
	// ColNames are the generated output column names (C1…Cn).
	ColNames []string
}

// BuildPlan computes the wide-tuple layout for the subtree rooted at target.
// It fails when the subtree reaches a table twice.
func BuildPlan(m *shred.Mapping, target string) (*Plan, error) {
	if m.Table(target) == nil {
		return nil, fmt.Errorf("outerunion: element %q has no table", target)
	}
	p := &Plan{
		M:        m,
		Target:   target,
		IDCol:    make(map[string]int),
		DataCols: make(map[string][]int),
		ParentOf: make(map[string]string),
	}
	var walk func(elem, parent string) error
	walk = func(elem, parent string) error {
		if _, dup := p.IDCol[elem]; dup {
			// Each table has one branch and one key column, so a table
			// that is recursive or shared by two parents has no
			// fixed-depth outer union.
			return fmt.Errorf("outerunion: table %q occurs twice in the subtree of %q", elem, target)
		}
		p.Tables = append(p.Tables, elem)
		p.ParentOf[elem] = parent
		p.IDCol[elem] = p.Width
		p.Width++
		tm := m.Table(elem)
		cols := make([]int, len(tm.Columns))
		for i := range tm.Columns {
			cols[i] = p.Width
			p.Width++
		}
		p.DataCols[elem] = cols
		for _, c := range tm.ChildTables {
			if err := walk(c, elem); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(target, ""); err != nil {
		return nil, err
	}
	p.ColNames = make([]string, p.Width)
	for i := range p.ColNames {
		p.ColNames[i] = fmt.Sprintf("C%d", i+1)
	}
	return p, nil
}

// SQL generates the WITH…UNION ALL…ORDER BY statement for the plan. where is
// an optional SQL condition over the target table (alias T); per §5.2 all
// value conditions are tested in the first, base subquery, since the other
// branches of the outer union cannot remove tuples.
func (p *Plan) SQL(where string) string {
	var b strings.Builder
	b.WriteString("WITH ")
	colList := strings.Join(p.ColNames, ", ")
	for qi, elem := range p.Tables {
		tm := p.M.Table(elem)
		if qi > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "Q%d(%s) AS (SELECT ", qi+1, colList)
		exprs := make([]string, p.Width)
		for i := range exprs {
			exprs[i] = "NULL"
		}
		if qi == 0 {
			exprs[p.IDCol[elem]] = "T.id"
			for i, wi := range p.DataCols[elem] {
				exprs[wi] = "T." + tm.Columns[i].Name
			}
			b.WriteString(strings.Join(exprs, ", "))
			fmt.Fprintf(&b, " FROM %s T", tm.Name)
			if where != "" {
				fmt.Fprintf(&b, " WHERE %s", where)
			}
		} else {
			parent := p.ParentOf[elem]
			parentQ := fmt.Sprintf("Q%d", indexOf(p.Tables, parent)+1)
			// Key columns of all ancestors are propagated from the parent
			// branch so the ORDER BY groups children under their parents.
			for anc := parent; anc != ""; anc = p.ParentOf[anc] {
				ci := p.IDCol[anc]
				exprs[ci] = fmt.Sprintf("%s.%s", parentQ, p.ColNames[ci])
			}
			exprs[p.IDCol[elem]] = "T.id"
			for i, wi := range p.DataCols[elem] {
				exprs[wi] = "T." + tm.Columns[i].Name
			}
			b.WriteString(strings.Join(exprs, ", "))
			fmt.Fprintf(&b, " FROM %s, %s T WHERE T.parentId = %s.%s",
				parentQ, tm.Name, parentQ, p.ColNames[p.IDCol[parent]])
		}
		b.WriteString(")")
	}
	b.WriteString(" ")
	for qi := range p.Tables {
		if qi > 0 {
			b.WriteString(" UNION ALL ")
		}
		fmt.Fprintf(&b, "(SELECT * FROM Q%d)", qi+1)
	}
	// Sort by every id column in pre-order; NULLs sort first, so parents
	// precede their children and subtrees do not interleave.
	var keys []string
	for _, elem := range p.Tables {
		keys = append(keys, p.ColNames[p.IDCol[elem]])
	}
	fmt.Fprintf(&b, " ORDER BY %s", strings.Join(keys, ", "))
	return b.String()
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}

// tableOfRow identifies which branch produced a wide tuple: the table whose
// id column is the deepest non-NULL key.
func (p *Plan) tableOfRow(row []relational.Value) (string, int64, bool) {
	for i := len(p.Tables) - 1; i >= 0; i-- {
		elem := p.Tables[i]
		if v, ok := row[p.IDCol[elem]].Int(); ok {
			// The deepest table with a set id whose data region may still
			// be another branch's ancestor propagation — ancestors only
			// propagate key columns, so the deepest non-NULL id column is
			// exactly the producing branch.
			return elem, v, true
		}
	}
	return "", 0, false
}

// Subtree is one reconstructed result subtree plus the tuple ids it came
// from (per table element) — the insert methods need the id sets.
type Subtree struct {
	Root *xmltree.Element
	// IDs maps table element → tuple ids within this subtree, in stream
	// order.
	IDs map[string][]int64
	// RootID is the target tuple's id.
	RootID int64
}

// reconstructor consumes the sorted wide-tuple stream one row at a time —
// fed directly from the streaming query pipeline, so with sort elision the
// first subtree assembles while the join is still producing later ones and
// the wide-tuple result is never buffered whole.
type reconstructor struct {
	p   *Plan
	out []*Subtree
	// elems maps tuple ids to materialized elements within the current
	// target subtree (ids are unique document-wide).
	elems map[int64]*xmltree.Element
	rank  map[*xmltree.Element]int
	cur   *Subtree
}

func (p *Plan) newReconstructor() *reconstructor {
	return &reconstructor{
		p:     p,
		elems: make(map[int64]*xmltree.Element),
		rank:  make(map[*xmltree.Element]int),
	}
}

// feed consumes one wide tuple of the sorted stream.
func (r *reconstructor) feed(row []relational.Value) error {
	p := r.p
	elem, id, ok := p.tableOfRow(row)
	if !ok {
		return fmt.Errorf("outerunion: all-NULL key row")
	}
	// A branch's data columns directly follow its id column.
	first := p.IDCol[elem] + 1
	e, err := p.M.ElementFromRow(elem, row[first:first+len(p.DataCols[elem])])
	if err != nil {
		return err
	}
	if elem == p.Target {
		r.cur = &Subtree{Root: e, RootID: id, IDs: make(map[string][]int64)}
		r.cur.IDs[elem] = append(r.cur.IDs[elem], id)
		r.out = append(r.out, r.cur)
		r.elems = map[int64]*xmltree.Element{id: e}
		return nil
	}
	if r.cur == nil {
		return fmt.Errorf("outerunion: child tuple before any target tuple")
	}
	parentID, ok := row[p.IDCol[p.ParentOf[elem]]].Int()
	if !ok {
		return fmt.Errorf("outerunion: child tuple with NULL parent key")
	}
	parent := r.elems[parentID]
	if parent == nil {
		return fmt.Errorf("outerunion: child tuple %d arrived before parent %d (sort violated)", id, parentID)
	}
	parent.AppendChild(e)
	r.rank[e] = indexOf(p.Tables, elem)
	r.elems[id] = e
	r.cur.IDs[elem] = append(r.cur.IDs[elem], id)
	return nil
}

// finish reorders children and returns the assembled subtrees.
func (r *reconstructor) finish() []*Subtree {
	// NULLs-first sorting emits later sibling branches before earlier ones;
	// restore schema order among table children (inlined children, with no
	// rank, stay first).
	for _, st := range r.out {
		reorderChildren(st.Root, r.rank)
	}
	return r.out
}

// Reconstruct reassembles a materialized sorted wide-tuple result into
// subtrees, one per target tuple. Query streams instead; this remains for
// callers that already hold the rows.
func (p *Plan) Reconstruct(rows *relational.Rows) ([]*Subtree, error) {
	r := p.newReconstructor()
	for _, row := range rows.Data {
		if err := r.feed(row); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// reorderChildren stable-sorts each element's children by producing-table
// pre-order rank; nodes without a rank (inlined content, text) keep their
// position at the front.
func reorderChildren(e *xmltree.Element, rank map[*xmltree.Element]int) {
	keyOf := func(n xmltree.Node) int {
		if ke, ok := n.(*xmltree.Element); ok {
			if r, has := rank[ke]; has {
				return r
			}
		}
		return -1
	}
	kids := e.Children()
	sorted := 1
	for sorted < len(kids) && keyOf(kids[sorted]) >= keyOf(kids[sorted-1]) {
		sorted++
	}
	if sorted < len(kids) {
		// Out of order: sort a copy. Insertion sort keeps the order
		// stable and the code allocation-free beyond the copied slice.
		kids = append([]xmltree.Node(nil), kids...)
		for i := 1; i < len(kids); i++ {
			for j := i; j > 0 && keyOf(kids[j]) < keyOf(kids[j-1]); j-- {
				kids[j], kids[j-1] = kids[j-1], kids[j]
			}
		}
		for _, k := range kids {
			e.RemoveChild(k)
		}
		for _, k := range kids {
			e.AppendChild(k)
		}
	}
	for _, k := range e.Children() {
		if ke, ok := k.(*xmltree.Element); ok {
			reorderChildren(ke, rank)
		}
	}
}

// Query runs the outer union for the subtree(s) rooted at target matching
// where, returning reconstructed subtrees. This is the binding phase shared
// by the multilevel update algorithm (§6.3) and the insert methods (§6.2).
// The wide-tuple stream feeds reconstruction row by row: under ordered
// indexes the sort is elided and subtrees assemble in document order while
// the pipeline still runs, never materializing the padded result.
func Query(db *relational.DB, m *shred.Mapping, target, where string) ([]*Subtree, error) {
	plan, err := BuildPlan(m, target)
	if err != nil {
		return nil, err
	}
	r := plan.newReconstructor()
	if _, err := db.QueryEach(plan.SQL(where), r.feed); err != nil {
		return nil, err
	}
	return r.finish(), nil
}
