package shred

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/xmltree"
)

// Dataset is the relational image of a shredded document: rows per table
// element, in document order.
type Dataset struct {
	// Rows maps table element name → rows. Row layout matches
	// TableMap.ColumnNames() (plus pos when the mapping orders tuples).
	Rows map[string][][]relational.Value
	// MaxID is the largest tuple id assigned.
	MaxID int64
}

// Shredder converts documents into relational tuples under a mapping.
type Shredder struct {
	M *Mapping
	// NextID is the next tuple id to assign; ids are unique per document.
	NextID int64
}

// NewShredder returns a shredder assigning ids from 1.
func NewShredder(m *Mapping) *Shredder { return &Shredder{M: m, NextID: 1} }

// Shred converts the document into tuples. The root element must match the
// mapping's root.
func (s *Shredder) Shred(doc *xmltree.Document) (*Dataset, error) {
	if doc.Root == nil || doc.Root.Name != s.M.Root {
		return nil, fmt.Errorf("shred: document root %q does not match mapping root %q",
			rootName(doc), s.M.Root)
	}
	ds := &Dataset{Rows: make(map[string][][]relational.Value)}
	if err := s.shredElement(doc.Root, 0, 0, ds); err != nil {
		return nil, err
	}
	ds.MaxID = s.NextID - 1
	return ds, nil
}

func rootName(doc *xmltree.Document) string {
	if doc.Root == nil {
		return ""
	}
	return doc.Root.Name
}

func (s *Shredder) shredElement(e *xmltree.Element, parentID int64, pos int, ds *Dataset) error {
	tm := s.M.Tables[e.Name]
	if tm == nil {
		return fmt.Errorf("shred: element <%s> has no table and was not inlined", e.Name)
	}
	id := s.NextID
	s.NextID++

	row := make([]relational.Value, 0, 2+len(tm.Columns))
	row = append(row, relational.Int(id))
	if parentID == 0 {
		row = append(row, relational.Null)
	} else {
		row = append(row, relational.Int(parentID))
	}
	if s.M.Opts.OrderColumn {
		row = append(row, relational.Int(int64(pos)))
	}
	for _, c := range tm.Columns {
		row = append(row, columnValue(e, &c))
	}
	ds.Rows[e.Name] = append(ds.Rows[e.Name], row)

	// Recurse into child elements that own tables. Inlined children are
	// covered by columns; unexpected elements are errors.
	childPos := 0
	inlined := make(map[string]bool)
	collectInlined(tm, inlined)
	for _, c := range e.ChildElements() {
		if _, ok := s.M.Tables[c.Name]; ok {
			if err := s.shredElement(c, id, childPos, ds); err != nil {
				return err
			}
			childPos++
			continue
		}
		if !inlined[c.Name] {
			return fmt.Errorf("shred: element <%s> under <%s> is not in the DTD mapping", c.Name, e.Name)
		}
	}
	return nil
}

// collectInlined records the first path step of every inlined column.
func collectInlined(tm *TableMap, out map[string]bool) {
	for _, c := range tm.Columns {
		if len(c.Path) > 0 {
			out[c.Path[0]] = true
		}
	}
}

// domText stores a DOM string as TEXT. xmltree.Parse returns names,
// attribute values and text as substrings of the source document, so the
// copy keeps one stored cell from pinning the whole parsed file in memory.
func domText(s string) relational.Value { return relational.Text(strings.Clone(s)) }

// columnValue extracts a column's value from the element subtree.
func columnValue(e *xmltree.Element, c *ColumnMap) relational.Value {
	target := e
	for _, step := range c.Path {
		target = target.FirstChildNamed(step)
		if target == nil {
			return relational.Null
		}
	}
	switch c.Kind {
	case AttrColumn:
		if c.RefKind == xmltree.AttrIDREF || c.RefKind == xmltree.AttrIDREFS {
			if r := target.Ref(c.Attr); r != nil {
				return domText(strings.Join(r.IDs, " "))
			}
			// A reference attribute parsed without its DTD is a plain attr.
			if v, ok := target.AttrValue(c.Attr); ok {
				return domText(v)
			}
			return relational.Null
		}
		if v, ok := target.AttrValue(c.Attr); ok {
			return domText(v)
		}
		return relational.Null
	case TextColumn:
		// Only direct PCDATA belongs to this element; nested element text
		// is stored with its own element.
		var b strings.Builder
		for _, ch := range target.Children() {
			if t, ok := ch.(*xmltree.Text); ok {
				b.WriteString(t.Data)
			}
		}
		if b.Len() == 0 && len(target.Children()) == 0 {
			return relational.Null
		}
		return relational.Text(b.String())
	case FlagColumn:
		return relational.Int(1)
	default:
		return relational.Null
	}
}

// ShredSubtree converts a subtree rooted at a table element into tuples
// parented at parentID, assigning fresh ids from the shredder's counter.
// The engine's insert path uses this for element-literal content.
func (s *Shredder) ShredSubtree(e *xmltree.Element, parentID int64, pos int) (*Dataset, error) {
	if s.M.Tables[e.Name] == nil {
		return nil, fmt.Errorf("shred: element <%s> has no table", e.Name)
	}
	ds := &Dataset{Rows: make(map[string][][]relational.Value)}
	if err := s.shredElement(e, parentID, pos, ds); err != nil {
		return nil, err
	}
	ds.MaxID = s.NextID - 1
	return ds, nil
}

// Load creates the mapping's tables in db (if absent) and stores the
// document's tuples with one DB.BulkLoad, returning the shredded dataset.
// The load is all-or-nothing and, on a directory DB, durable when Load
// returns. It issues no per-tuple INSERT: the paper's experiments measure
// update translation, not initial document loading.
func Load(db *relational.DB, m *Mapping, doc *xmltree.Document) (*Dataset, error) {
	for _, sql := range m.CreateTablesSQL() {
		if _, err := db.Exec(sql); err != nil {
			if !strings.Contains(err.Error(), "already exists") {
				return nil, err
			}
		}
	}
	sh := NewShredder(m)
	ds, err := sh.Shred(doc)
	if err != nil {
		return nil, err
	}
	rows := make(map[string][][]relational.Value, len(ds.Rows))
	for elem, r := range ds.Rows {
		rows[m.Tables[elem].Name] = r
	}
	if err := db.BulkLoad(rows); err != nil {
		return nil, err
	}
	return ds, nil
}

// TupleCount sums the dataset's rows.
func (ds *Dataset) TupleCount() int {
	n := 0
	for _, rows := range ds.Rows {
		n += len(rows)
	}
	return n
}

// InsertSQL renders the dataset as INSERT statements (one per tuple), the
// form the tuple-based insert method issues.
func (m *Mapping) InsertSQL(ds *Dataset) []string {
	var out []string
	for _, elem := range m.TableOrder {
		tm := m.Tables[elem]
		for _, row := range ds.Rows[elem] {
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = valueToSQL(v)
			}
			out = append(out, fmt.Sprintf("INSERT INTO %s VALUES (%s)", tm.Name, strings.Join(vals, ", ")))
		}
	}
	return out
}
