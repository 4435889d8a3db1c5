package shred

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relational"
	"repro/internal/xmltree"
)

// Reconstruct rebuilds the XML document from the stored tuples. Without an
// order column, children appear in schema order (inlined children in DTD
// order, then child-table rows by tuple id); with Options.OrderColumn they
// appear by stored position, interleaving table children faithfully.
//
// Every table is read inside one transaction snapshot, so the document is
// a committed state even while another transaction has writes in flight,
// and the reads count in Stats like any other query.
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
	root, err := m.buildElement(m.Root, roots[0], byParent)
	if err != nil {
		return nil, err
	}
	doc := xmltree.NewDocument(root)
	doc.DTD = m.DTD
	return doc, nil
}

// storedRow pairs a tuple with its id and position.
type storedRow struct {
	id   int64
	pos  int64
	vals map[string]relational.Value // keyed by lower-case column name
}

const nilKey = int64(-1)

// tableRows loads an entire table grouped by parentId (nilKey for NULL).
func tableRows(tx *relational.Tx, m *Mapping, elem string) (map[int64][]storedRow, error) {
	tm := m.Tables[elem]
	cols := []string{"id", "parentId"}
	if m.Opts.OrderColumn {
		cols = append(cols, "pos")
	}
	first := len(cols) // position of the first mapped column in a result row
	keys := make([]string, len(tm.Columns))
	for i, c := range tm.Columns {
		cols = append(cols, c.Name)
		keys[i] = strings.ToLower(c.Name)
	}
	out := make(map[int64][]storedRow)
	_, err := tx.QueryEach("SELECT "+strings.Join(cols, ", ")+" FROM "+tm.Name, func(row []relational.Value) error {
		sr := storedRow{vals: make(map[string]relational.Value, len(keys))}
		for i, k := range keys {
			sr.vals[k] = row[first+i]
		}
		if v, ok := row[0].Int(); ok {
			sr.id = v
		}
		if m.Opts.OrderColumn {
			if v, ok := row[2].Int(); ok {
				sr.pos = v
			}
		}
		key := nilKey
		if v, ok := row[1].Int(); ok {
			key = v
		}
		out[key] = append(out[key], sr)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shred: reading table %s: %w", tm.Name, err)
	}
	for k := range out {
		rows := out[k]
		sort.Slice(rows, func(i, j int) bool {
			if m.Opts.OrderColumn && rows[i].pos != rows[j].pos {
				return rows[i].pos < rows[j].pos
			}
			return rows[i].id < rows[j].id
		})
	}
	return out, nil
}

func (m *Mapping) buildElement(elem string, row storedRow, byParent map[string]map[int64][]storedRow) (*xmltree.Element, error) {
	tm := m.Tables[elem]
	e := xmltree.NewElement(elem)
	if err := m.applyInlined(tm, e, nil, row); err != nil {
		return nil, err
	}
	// Children in schema order: the DTD's declared order interleaves
	// inlined children (already applied above, as elements) and table
	// children.
	for _, childElem := range tm.ChildTables {
		for _, childRow := range byParent[childElem][row.id] {
			ce, err := m.buildElement(childElem, childRow, byParent)
			if err != nil {
				return nil, err
			}
			e.AppendChild(ce)
		}
	}
	return e, nil
}

// applyInlined populates e with the attributes, text, and inlined child
// elements stored at the given path prefix.
func (m *Mapping) applyInlined(tm *TableMap, e *xmltree.Element, path []string, row storedRow) error {
	prefix := strings.Join(path, "/")
	// Attributes and text at this path.
	for _, c := range tm.Columns {
		if strings.Join(c.Path, "/") != prefix {
			continue
		}
		v := row.vals[strings.ToLower(c.Name)]
		if v.IsNull() {
			continue
		}
		switch c.Kind {
		case AttrColumn:
			s := valueAsString(v)
			switch c.RefKind {
			case xmltree.AttrIDREF, xmltree.AttrIDREFS:
				ids := strings.Fields(s)
				if len(ids) > 0 {
					if err := e.AttachRefList(&xmltree.RefList{Name: c.Attr, IDs: ids}); err != nil {
						return err
					}
				}
			default:
				if _, err := e.SetAttr(c.Attr, s); err != nil {
					return err
				}
			}
		case TextColumn:
			if s := valueAsString(v); s != "" {
				e.AppendChild(xmltree.NewText(s))
			}
		}
	}
	// Inlined child elements one level deeper.
	elemName := tm.Element
	if len(path) > 0 {
		elemName = path[len(path)-1]
	}
	for _, child := range m.DTD.ChildNamesOrdered(elemName) {
		childPath := append(append([]string(nil), path...), child)
		if !m.pathPresent(tm, childPath, row) {
			continue
		}
		ce := xmltree.NewElement(child)
		if err := m.applyInlined(tm, ce, childPath, row); err != nil {
			return err
		}
		e.AppendChild(ce)
	}
	return nil
}

// pathPresent reports whether the inlined element at path exists in the
// tuple: its flag is set, or any of its (or its descendants') columns are
// non-NULL.
func (m *Mapping) pathPresent(tm *TableMap, path []string, row storedRow) bool {
	prefix := strings.Join(path, "/")
	for _, c := range tm.Columns {
		p := strings.Join(c.Path, "/")
		if p != prefix && !strings.HasPrefix(p, prefix+"/") {
			continue
		}
		if !row.vals[strings.ToLower(c.Name)].IsNull() {
			return true
		}
	}
	// Every column under the path is NULL, or the path has none (a pure
	// structural element with table children only cannot be inlined): the
	// element is absent.
	return false
}

// ElementFromRow materializes the element a single tuple stores — its
// attributes, text, and inlined children — without descending into child
// tables. vals maps lower-case column names to values. The Sorted Outer
// Union reconstructor attaches child-table elements afterwards.
func (m *Mapping) ElementFromRow(tableElem string, vals map[string]relational.Value) (*xmltree.Element, error) {
	tm := m.Tables[tableElem]
	if tm == nil {
		return nil, fmt.Errorf("shred: element %q has no table", tableElem)
	}
	e := xmltree.NewElement(tableElem)
	if err := m.applyInlined(tm, e, nil, storedRow{vals: vals}); err != nil {
		return nil, err
	}
	return e, nil
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
