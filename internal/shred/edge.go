package shred

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relational"
	"repro/internal/xmltree"
)

// The Edge mapping (§5.1, after Florescu & Kossmann): every element,
// attribute, reference, and text node is one tuple in a single Edge table.
// It needs no DTD but fragments the document maximally — the paper's stated
// reason for preferring inlining. It is provided as the alternative storage
// scheme the paper says it experimented with.

// Edge tuple kinds.
const (
	EdgeElem = "elem"
	EdgeAttr = "attr"
	EdgeRef  = "ref"
	EdgeText = "text"
)

// EdgeSchemaSQL returns the statements creating the Edge table and its
// indexes.
func EdgeSchemaSQL() []string {
	return []string{
		`CREATE TABLE Edge (id INTEGER, parentId INTEGER, ord INTEGER, kind VARCHAR(8), name VARCHAR(255), value VARCHAR(255))`,
		`CREATE INDEX idx_edge_id ON Edge (id)`,
		`CREATE INDEX idx_edge_parent ON Edge (parentId)`,
		`CREATE INDEX idx_edge_name ON Edge (name)`,
	}
}

// LoadEdge creates the Edge table (if absent) and loads the document,
// returning the number of edge tuples.
func LoadEdge(db *relational.DB, doc *xmltree.Document) (int, error) {
	for _, sql := range EdgeSchemaSQL() {
		if _, err := db.Exec(sql); err != nil {
			if !strings.Contains(err.Error(), "already exists") {
				return 0, err
			}
		}
	}
	var rows [][]relational.Value
	add := func(parent relational.Value, ord int, kind string, name, value relational.Value) int64 {
		id := int64(len(rows) + 1)
		rows = append(rows, []relational.Value{relational.Int(id), parent, relational.Int(int64(ord)), relational.Text(kind), name, value})
		return id
	}
	var walk func(e *xmltree.Element, parent relational.Value, ord int)
	walk = func(e *xmltree.Element, parent relational.Value, ord int) {
		id := relational.Int(add(parent, ord, EdgeElem, domText(e.Name), relational.Null))
		sub := 0
		for _, a := range e.Attrs() {
			add(id, sub, EdgeAttr, domText(a.Name), domText(a.Value))
			sub++
		}
		for _, r := range e.Refs() {
			for _, idv := range r.IDs {
				add(id, sub, EdgeRef, domText(r.Name), domText(idv))
				sub++
			}
		}
		for _, c := range e.Children() {
			switch n := c.(type) {
			case *xmltree.Text:
				add(id, sub, EdgeText, relational.Text(""), domText(n.Data))
				sub++
			case *xmltree.Element:
				walk(n, id, sub)
				sub++
			}
		}
	}
	walk(doc.Root, relational.Null, 0)
	if err := db.BulkLoad(map[string][][]relational.Value{"Edge": rows}); err != nil {
		return 0, err
	}
	return len(rows), nil
}

// ReconstructEdge rebuilds the document from the Edge table, restoring full
// document order (the Edge mapping is the only scheme here that preserves
// order without the optional pos column).
func ReconstructEdge(db *relational.DB) (*xmltree.Document, error) {
	type edge struct {
		id, parent, ord int64
		kind, name      string
		value           relational.Value
	}
	var all []edge
	// One snapshot: the document read is a committed state.
	tx := db.Begin()
	defer tx.Rollback()
	_, err := tx.QueryEach("SELECT id, parentId, ord, kind, name, value FROM Edge", func(row []relational.Value) error {
		e := edge{kind: row[3].MustText()}
		e.id = row[0].MustInt()
		if v, ok := row[1].Int(); ok {
			e.parent = v
		}
		if v, ok := row[2].Int(); ok {
			e.ord = v
		}
		if s, ok := row[4].Text(); ok {
			e.name = s
		}
		e.value = row[5]
		all = append(all, e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shred: reading table Edge: %w", err)
	}
	children := make(map[int64][]edge)
	var root *edge
	for i := range all {
		e := all[i]
		if e.parent == 0 && e.kind == EdgeElem {
			if root != nil {
				return nil, fmt.Errorf("shred: multiple root edges")
			}
			root = &all[i]
			continue
		}
		children[e.parent] = append(children[e.parent], e)
	}
	if root == nil {
		return nil, fmt.Errorf("shred: no root edge")
	}
	for k := range children {
		kids := children[k]
		sort.Slice(kids, func(i, j int) bool { return kids[i].ord < kids[j].ord })
	}
	var slab xmltree.Slab
	var build func(e edge) (*xmltree.Element, error)
	build = func(e edge) (*xmltree.Element, error) {
		kids := children[e.id]
		n := 0
		for _, c := range kids {
			if c.kind == EdgeText || c.kind == EdgeElem {
				n++
			}
		}
		el := slab.Element(e.name, n)
		for _, c := range kids {
			switch c.kind {
			case EdgeAttr:
				if _, err := el.SetAttr(c.name, valueAsString(c.value)); err != nil {
					return nil, err
				}
			case EdgeRef:
				el.AddRef(c.name, valueAsString(c.value))
			case EdgeText:
				el.AppendChild(slab.Text(valueAsString(c.value)))
			case EdgeElem:
				ce, err := build(c)
				if err != nil {
					return nil, err
				}
				el.AppendChild(ce)
			}
		}
		return el, nil
	}
	rootEl, err := build(*root)
	if err != nil {
		return nil, err
	}
	return xmltree.NewDocument(rootEl), nil
}
