package shred

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/relational"
	"repro/internal/xmltree"
)

// Reconstruct rebuilds the XML document from the stored tuples. An
// element's children appear grouped: its inlined children in DTD order,
// then the rows of each child table, table by table in schema order. Within
// one table, rows come by tuple id, or by stored position with
// Options.OrderColumn. Positions are not merged across tables, so siblings
// stored in different child tables come back grouped by table even where
// the document interleaved them.
//
// Every table is read inside one transaction snapshot, so the document is
// a committed state even while another transaction has writes in flight,
// and the reads count in Stats like any other query. The elements come from
// one slab, each with its child list reserved at its exact size.
func Reconstruct(db *relational.DB, m *Mapping) (*xmltree.Document, error) {
	tx := db.Begin()
	defer tx.Rollback()
	// Pre-fetch all tables grouped by parentId.
	byParent := make(map[string]map[int64][]storedRow, len(m.TableOrder))
	for _, elem := range m.TableOrder {
		rows, err := tableRows(tx, m, elem)
		if err != nil {
			return nil, err
		}
		byParent[elem] = rows
	}
	roots := byParent[m.Root][nilKey]
	if len(roots) != 1 {
		return nil, fmt.Errorf("shred: expected 1 root tuple, found %d", len(roots))
	}
	var slab xmltree.Slab
	root, err := m.buildElement(&slab, m.Root, roots[0], byParent)
	if err != nil {
		return nil, err
	}
	doc := xmltree.NewDocument(root)
	doc.DTD = m.DTD
	return doc, nil
}

// storedRow is one tuple: its id, parent id, position, and its data
// columns aligned with TableMap.Columns.
type storedRow struct {
	id, parent, pos int64
	vals            []relational.Value
}

const nilKey = int64(-1)

// slabRows is how many rows' data columns tableRows allocates at once.
const slabRows = 256

// tableRows loads an entire table grouped by parentId (nilKey for NULL),
// each group in child order. The groups are windows of one slice sorted by
// parent, position and id.
func tableRows(tx *relational.Tx, m *Mapping, elem string) (map[int64][]storedRow, error) {
	tm := m.Tables[elem]
	cols := []string{"id", "parentId"}
	if m.Opts.OrderColumn {
		cols = append(cols, "pos")
	}
	first := len(cols) // position of the first mapped column in a result row
	n := len(tm.Columns)
	for _, c := range tm.Columns {
		cols = append(cols, c.Name)
	}
	var rows []storedRow
	var slab []relational.Value
	_, err := tx.QueryEach("SELECT "+strings.Join(cols, ", ")+" FROM "+tm.Name, func(row []relational.Value) error {
		if len(slab) < n {
			slab = make([]relational.Value, n*slabRows)
		}
		sr := storedRow{parent: nilKey, vals: slab[:n:n]}
		slab = slab[n:]
		copy(sr.vals, row[first:])
		if v, ok := row[0].Int(); ok {
			sr.id = v
		}
		if v, ok := row[1].Int(); ok {
			sr.parent = v
		}
		if m.Opts.OrderColumn {
			if v, ok := row[2].Int(); ok {
				sr.pos = v
			}
		}
		rows = append(rows, sr)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shred: reading table %s: %w", tm.Name, err)
	}
	slices.SortFunc(rows, func(a, b storedRow) int {
		return cmp.Or(cmp.Compare(a.parent, b.parent), cmp.Compare(a.pos, b.pos), cmp.Compare(a.id, b.id))
	})
	out := make(map[int64][]storedRow)
	for lo, hi := 0, 0; lo < len(rows); lo = hi {
		for hi = lo + 1; hi < len(rows) && rows[hi].parent == rows[lo].parent; hi++ {
		}
		out[rows[lo].parent] = rows[lo:hi:hi]
	}
	return out, nil
}

func (m *Mapping) buildElement(slab *xmltree.Slab, elem string, row storedRow, byParent map[string]map[int64][]storedRow) (*xmltree.Element, error) {
	tm := m.Tables[elem]
	rows := 0
	for _, childElem := range tm.ChildTables {
		rows += len(byParent[childElem][row.id])
	}
	e, err := tm.build(slab, tm.shape, row.vals, rows)
	if err != nil {
		return nil, err
	}
	// Children in schema order: the DTD's declared order interleaves
	// inlined children (already built above, as elements) and table
	// children.
	for _, childElem := range tm.ChildTables {
		for _, childRow := range byParent[childElem][row.id] {
			ce, err := m.buildElement(slab, childElem, childRow, byParent)
			if err != nil {
				return nil, err
			}
			e.AppendChild(ce)
		}
	}
	return e, nil
}

// elemShape is one element position of a table's compiled layout: the
// table's element or an inlined descendant. Compiled once per mapping, it
// lets both readers build an element from a row without consulting the DTD
// or comparing column paths.
type elemShape struct {
	name string
	// own indexes the attribute and text columns stored at this position.
	own []int
	// under indexes every column at or below this position; the element is
	// present when any of them is non-NULL (its flag is set, or it has
	// content).
	under []int
	// children are the inlined children that own at least one column, in
	// DTD order.
	children []*elemShape
}

// compileShape builds the shape of the element at path within tm. It
// returns nil for an inlined position with no columns at or below it — a
// table child, or the recursive step of a recursive DTD — so compilation
// follows only stored paths and always terminates.
func compileShape(dtd *xmltree.DTD, tm *TableMap, name string, path []string) *elemShape {
	s := &elemShape{name: name}
	for i, c := range tm.Columns {
		if len(c.Path) < len(path) || !slices.Equal(c.Path[:len(path)], path) {
			continue
		}
		s.under = append(s.under, i)
		if len(c.Path) == len(path) && c.Kind != FlagColumn {
			s.own = append(s.own, i)
		}
	}
	if len(path) > 0 && len(s.under) == 0 {
		return nil
	}
	for _, child := range dtd.ChildNamesOrdered(name) {
		if cs := compileShape(dtd, tm, child, append(path[:len(path):len(path)], child)); cs != nil {
			s.children = append(s.children, cs)
		}
	}
	return s
}

// build materializes the element at s from vals, the tuple's data columns
// aligned with tm.Columns: its attributes, text, and present inlined
// children. Its child list is taken from slab at the size it will reach,
// those children plus rows more (the caller's table-child rows), so
// appending them never regrows it.
func (tm *TableMap) build(slab *xmltree.Slab, s *elemShape, vals []relational.Value, rows int) (*xmltree.Element, error) {
	n := rows
	for _, ci := range s.own {
		if tm.Columns[ci].Kind == TextColumn && hasText(vals[ci]) {
			n++
		}
	}
	for _, cs := range s.children {
		if cs.present(vals) {
			n++
		}
	}
	e := slab.Element(s.name, n)
	for _, ci := range s.own {
		v := vals[ci]
		if v.IsNull() {
			continue
		}
		c := &tm.Columns[ci]
		switch c.Kind {
		case AttrColumn:
			str := valueAsString(v)
			switch c.RefKind {
			case xmltree.AttrIDREF, xmltree.AttrIDREFS:
				ids := strings.Fields(str)
				if len(ids) > 0 {
					if err := e.AttachRefList(&xmltree.RefList{Name: c.Attr, IDs: ids}); err != nil {
						return nil, err
					}
				}
			default:
				if _, err := e.SetAttr(c.Attr, str); err != nil {
					return nil, err
				}
			}
		case TextColumn:
			if hasText(v) {
				e.AppendChild(slab.Text(valueAsString(v)))
			}
		}
	}
	for _, cs := range s.children {
		if !cs.present(vals) {
			continue
		}
		ce, err := tm.build(slab, cs, vals, 0)
		if err != nil {
			return nil, err
		}
		e.AppendChild(ce)
	}
	return e, nil
}

// present reports whether the inlined element exists in the tuple: any
// column at or below it is non-NULL.
func (s *elemShape) present(vals []relational.Value) bool {
	for _, ci := range s.under {
		if !vals[ci].IsNull() {
			return true
		}
	}
	return false
}

// ElementFromRow materializes the element a single tuple stores — its
// attributes, text, and inlined children — without descending into child
// tables. vals holds the tuple's data columns, aligned with
// TableMap.Columns. The element's nodes come from slab. The Sorted Outer
// Union reconstructor attaches child-table elements afterwards; they
// overflow the child list reserved here, which then regrows on its own.
func (m *Mapping) ElementFromRow(slab *xmltree.Slab, tableElem string, vals []relational.Value) (*xmltree.Element, error) {
	tm := m.Tables[tableElem]
	if tm == nil {
		return nil, fmt.Errorf("shred: element %q has no table", tableElem)
	}
	return tm.build(slab, tm.shape, vals, 0)
}

// hasText reports whether v reads as a non-empty string, the test for a
// text column becoming a PCDATA child.
func hasText(v relational.Value) bool {
	if s, ok := v.Text(); ok {
		return s != ""
	}
	_, ok := v.Int()
	return ok
}

func valueAsString(v relational.Value) string {
	if s, ok := v.Text(); ok {
		return s
	}
	if n, ok := v.Int(); ok {
		return strconv.FormatInt(n, 10)
	}
	return ""
}
