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
	t := db.Table("Edge")
	next := int64(1)
	count := 0
	var walk func(e *xmltree.Element, parent int64, ord int) error
	walk = func(e *xmltree.Element, parent int64, ord int) error {
		id := next
		next++
		pid := relational.Null
		if parent != 0 {
			pid = relational.Int(parent)
		}
		if _, err := t.Insert([]relational.Value{relational.Int(id), pid, relational.Int(int64(ord)), relational.Text(EdgeElem), domText(e.Name), relational.Null}); err != nil {
			return err
		}
		count++
		sub := 0
		for _, a := range e.Attrs() {
			aid := next
			next++
			if _, err := t.Insert([]relational.Value{relational.Int(aid), relational.Int(id), relational.Int(int64(sub)), relational.Text(EdgeAttr), domText(a.Name), domText(a.Value)}); err != nil {
				return err
			}
			count++
			sub++
		}
		for _, r := range e.Refs() {
			for _, idv := range r.IDs {
				rid := next
				next++
				if _, err := t.Insert([]relational.Value{relational.Int(rid), relational.Int(id), relational.Int(int64(sub)), relational.Text(EdgeRef), domText(r.Name), domText(idv)}); err != nil {
					return err
				}
				count++
				sub++
			}
		}
		for _, c := range e.Children() {
			switch n := c.(type) {
			case *xmltree.Text:
				tid := next
				next++
				if _, err := t.Insert([]relational.Value{relational.Int(tid), relational.Int(id), relational.Int(int64(sub)), relational.Text(EdgeText), relational.Text(""), domText(n.Data)}); err != nil {
					return err
				}
				count++
				sub++
			case *xmltree.Element:
				if err := walk(n, id, sub); err != nil {
					return err
				}
				sub++
			}
		}
		return nil
	}
	if err := walk(doc.Root, 0, 0); err != nil {
		return 0, err
	}
	return count, nil
}

// ReconstructEdge rebuilds the document from the Edge table, restoring full
// document order (the Edge mapping is the only scheme here that preserves
// order without the optional pos column).
func ReconstructEdge(db *relational.DB) (*xmltree.Document, error) {
	t := db.Table("Edge")
	if t == nil {
		return nil, fmt.Errorf("shred: no Edge table")
	}
	type edge struct {
		id, parent, ord int64
		kind, name      string
		value           relational.Value
	}
	var all []edge
	_, err := t.Scan(func(_ int, row []relational.Value) bool {
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
		return true
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
	var build func(e edge) (*xmltree.Element, error)
	build = func(e edge) (*xmltree.Element, error) {
		el := xmltree.NewElement(e.name)
		for _, c := range children[e.id] {
			switch c.kind {
			case EdgeAttr:
				if _, err := el.SetAttr(c.name, valueAsString(c.value)); err != nil {
					return nil, err
				}
			case EdgeRef:
				el.AddRef(c.name, valueAsString(c.value))
			case EdgeText:
				el.AppendChild(xmltree.NewText(valueAsString(c.value)))
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
