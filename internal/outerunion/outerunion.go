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
	// Branches lists the subtree's table elements in pre-order, one union
	// branch each; Branches[0] is the target.
	Branches []Branch
	// Width is the wide tuple's column count.
	Width int
	// ColNames are the generated output column names (C1…Cn).
	ColNames []string
	// head and tail are the statement before and after its condition.
	head, tail string
}

// Branch is one table element's region of the wide tuple: its id column,
// directly followed by its data columns (aligned with TableMap.Columns).
type Branch struct {
	Elem  string
	ID    int
	NData int
	// Parent is the parent branch's index, -1 at the target.
	Parent int
}

// Data returns the branch's data columns of a wide tuple.
func (b *Branch) Data(row []relational.Value) []relational.Value {
	return row[b.ID+1 : b.ID+1+b.NData]
}

// BuildPlan computes the wide-tuple layout and statement for the subtree
// rooted at target. It fails when the subtree reaches a table twice.
func BuildPlan(m *shred.Mapping, target string) (*Plan, error) {
	if m.Table(target) == nil {
		return nil, fmt.Errorf("outerunion: element %q has no table", target)
	}
	p := &Plan{M: m, Target: target}
	seen := make(map[string]bool)
	var walk func(elem string, parent int) error
	walk = func(elem string, parent int) error {
		if seen[elem] {
			// Each table has one branch and one key column, so a table
			// that is recursive or shared by two parents has no
			// fixed-depth outer union.
			return fmt.Errorf("outerunion: table %q occurs twice in the subtree of %q", elem, target)
		}
		tm := m.Table(elem)
		seen[elem] = true
		bi := len(p.Branches)
		p.Branches = append(p.Branches, Branch{Elem: elem, ID: p.Width, NData: len(tm.Columns), Parent: parent})
		p.Width += 1 + len(tm.Columns)
		for _, c := range tm.ChildTables {
			if err := walk(c, bi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(target, -1); err != nil {
		return nil, err
	}
	p.ColNames = make([]string, p.Width)
	for i := range p.ColNames {
		p.ColNames[i] = fmt.Sprintf("C%d", i+1)
	}
	p.buildSQL()
	return p, nil
}

// buildSQL renders the statement once, split around its condition. Q1, the
// only CTE, holds the target rows passing the condition. Every other branch
// joins Q1 to the tables on its parentId chain, T1 … Tk, and takes its
// ancestor keys from their ids, so no branch reads another branch's rows.
// The keys are the id columns in pre-order with each node's child tables
// visited in reverse schema order: NULLs sort first, so parents precede
// children, subtrees stay contiguous, and sibling tables arrive in schema
// order.
func (p *Plan) buildSQL() {
	exprs := make([]string, p.Width)
	for i := range exprs {
		exprs[i] = "NULL"
	}
	// sel projects branch b's data columns from alias over the id columns
	// already set, then resets exprs to NULLs.
	sel := func(b *Branch, alias string) string {
		for i, c := range p.M.Table(b.Elem).Columns {
			exprs[b.ID+1+i] = alias + "." + c.Name
		}
		s := strings.Join(exprs, ", ")
		for i := range exprs {
			exprs[i] = "NULL"
		}
		return s
	}
	exprs[0] = "T.id"
	p.head = fmt.Sprintf("WITH Q1(%s) AS (SELECT %s FROM %s T", strings.Join(p.ColNames, ", "),
		sel(&p.Branches[0], "T"), p.M.Table(p.Target).Name)
	var b strings.Builder
	b.WriteString(") (SELECT * FROM Q1)")
	for bi := 1; bi < len(p.Branches); bi++ {
		// chain runs from the branch up to the target's child table.
		var chain []*Branch
		for c := &p.Branches[bi]; c.Parent >= 0; c = &p.Branches[c.Parent] {
			chain = append(chain, c)
		}
		up := "Q1.C1"
		exprs[0] = up
		from := []string{"Q1"}
		var conds []string
		for k := len(chain) - 1; k >= 0; k-- {
			t := fmt.Sprintf("T%d", len(chain)-k)
			from = append(from, p.M.Table(chain[k].Elem).Name+" "+t)
			conds = append(conds, t+".parentId = "+up)
			up = t + ".id"
			exprs[chain[k].ID] = up
		}
		fmt.Fprintf(&b, " UNION ALL (SELECT %s FROM %s WHERE %s)", sel(chain[0], fmt.Sprintf("T%d", len(chain))),
			strings.Join(from, ", "), strings.Join(conds, " AND "))
	}
	// A branch's children follow it in schema order, so walking the later
	// branches backwards visits them reversed.
	var keys []string
	var order func(bi int)
	order = func(bi int) {
		keys = append(keys, p.ColNames[p.Branches[bi].ID])
		for c := len(p.Branches) - 1; c > bi; c-- {
			if p.Branches[c].Parent == bi {
				order(c)
			}
		}
	}
	order(0)
	fmt.Fprintf(&b, " ORDER BY %s", strings.Join(keys, ", "))
	p.tail = b.String()
}

// SQL returns the WITH…UNION ALL…ORDER BY statement for the plan. where is
// an optional SQL condition over the target table (alias T); per §5.2 it is
// tested once, in Q1, since the other branches of the outer union cannot
// remove tuples.
func (p *Plan) SQL(where string) string {
	if where == "" {
		return p.head + p.tail
	}
	return p.head + " WHERE " + where + p.tail
}

// BranchOf identifies the branch that produced a wide tuple, and its id: a
// branch sets only its own and its ancestors' id columns, so the producer
// is the last branch in pre-order with a non-NULL id.
func (p *Plan) BranchOf(row []relational.Value) (int, int64, bool) {
	for bi := len(p.Branches) - 1; bi >= 0; bi-- {
		if v, ok := row[p.Branches[bi].ID].Int(); ok {
			return bi, v, true
		}
	}
	return 0, 0, false
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
	// ids collects IDs per branch while the stream is read.
	ids [][]int64
}

// reconstructor consumes the sorted wide-tuple stream one row at a time —
// fed directly from the streaming query pipeline, so with sort elision the
// first subtree assembles while the join is still producing later ones and
// the wide-tuple result is never buffered whole. Rows arrive parents first
// and siblings in schema order, so a row's parent is the element its parent
// branch emitted last and appending it keeps document order.
type reconstructor struct {
	p   *Plan
	out []*Subtree
	cur *Subtree
	// last and lastID hold, per branch, the element and id it emitted last
	// within the current subtree.
	last   []*xmltree.Element
	lastID []int64
	// slab supplies every element and text node of the stream's subtrees.
	slab xmltree.Slab
}

func (p *Plan) newReconstructor() *reconstructor {
	return &reconstructor{p: p, last: make([]*xmltree.Element, len(p.Branches)), lastID: make([]int64, len(p.Branches))}
}

// feed consumes one wide tuple of the sorted stream.
func (r *reconstructor) feed(row []relational.Value) error {
	p := r.p
	bi, id, ok := p.BranchOf(row)
	if !ok {
		return fmt.Errorf("outerunion: all-NULL key row")
	}
	b := &p.Branches[bi]
	e, err := p.M.ElementFromRow(&r.slab, b.Elem, b.Data(row))
	if err != nil {
		return err
	}
	if bi == 0 {
		clear(r.last)
		r.cur = &Subtree{Root: e, RootID: id, ids: make([][]int64, len(p.Branches))}
		r.out = append(r.out, r.cur)
	} else {
		parentID, ok := row[p.Branches[b.Parent].ID].Int()
		if !ok || r.last[b.Parent] == nil || parentID != r.lastID[b.Parent] {
			return fmt.Errorf("outerunion: %s tuple %d does not follow its parent (sort violated)", b.Elem, id)
		}
		r.last[b.Parent].AppendChild(e)
	}
	r.last[bi], r.lastID[bi] = e, id
	r.cur.ids[bi] = append(r.cur.ids[bi], id)
	return nil
}

// finish fills each subtree's id sets and returns the assembled subtrees.
func (r *reconstructor) finish() []*Subtree {
	for _, st := range r.out {
		st.IDs = make(map[string][]int64, len(st.ids))
		for bi, ids := range st.ids {
			if len(ids) > 0 {
				st.IDs[r.p.Branches[bi].Elem] = ids
			}
		}
		st.ids = nil
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
	return plan.Query(db, where)
}

// Query runs the plan's statement with condition where and streams it into
// reconstruction.
func (p *Plan) Query(db relational.Session, where string) ([]*Subtree, error) {
	r := p.newReconstructor()
	if _, err := db.QueryEach(p.SQL(where), r.feed); err != nil {
		return nil, err
	}
	return r.finish(), nil
}
