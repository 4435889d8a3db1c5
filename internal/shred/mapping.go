// Package shred implements the XML-to-relational storage mappings of §5:
// the Shared Inlining method (the paper's primary storage scheme) and the
// Edge mapping (the DTD-less alternative), together with the shredder that
// loads a document into a relational.DB and the reconstructor that rebuilds
// XML from stored tuples.
package shred

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/xmltree"
)

// ColumnKind classifies a mapped column.
type ColumnKind int

// Column kinds.
const (
	// AttrColumn stores an attribute value (including IDREF/IDREFS values,
	// which are stored as their space-separated string form).
	AttrColumn ColumnKind = iota
	// TextColumn stores an element's PCDATA content.
	TextColumn
	// FlagColumn records presence of an inlined non-leaf element whose own
	// content is entirely inlined — without it, all-NULL children would be
	// indistinguishable from an absent element (§6.1).
	FlagColumn
)

// ColumnMap maps one relational column back to the XML item it stores.
type ColumnMap struct {
	// Name is the SQL column name.
	Name string
	// Path is the element path from the table's element to the inlined
	// element ("" for the table element itself is an empty path).
	Path []string
	// Attr is the attribute name for AttrColumn ("" otherwise).
	Attr string
	Kind ColumnKind
	// RefKind is the declared attribute type, used to rebuild reference
	// lists on reconstruction.
	RefKind xmltree.AttrType
}

// TableMap describes one generated table.
type TableMap struct {
	// Element is the XML element the table stores.
	Element string
	// Name is the SQL table name (reserved words are suffixed).
	Name string
	// Parent is the element name of the parent table ("" for the root).
	Parent string
	// Columns are the data columns following the id and parentId columns.
	Columns []ColumnMap
	// ChildTables lists child table element names in DTD order.
	ChildTables []string
	// InlinedChildren lists, in DTD order, the inlined child element names
	// (used by the reconstructor to emit children in schema order).
	InlinedChildren []string

	// shape is the table element's compiled layout, which both readers
	// build elements from.
	shape *elemShape
}

// ColumnNames returns the full SQL column list: id, parentId, then data.
func (tm *TableMap) ColumnNames() []string {
	out := []string{"id", "parentId"}
	for _, c := range tm.Columns {
		out = append(out, c.Name)
	}
	return out
}

// Column returns the column map with the given SQL name, or nil.
func (tm *TableMap) Column(name string) *ColumnMap {
	for i := range tm.Columns {
		if strings.EqualFold(tm.Columns[i].Name, name) {
			return &tm.Columns[i]
		}
	}
	return nil
}

// Options configures mapping generation.
type Options struct {
	// OrderColumn adds a `pos` column recording each tuple's position among
	// its parent's children — the paper's §8 future-work extension for
	// order-preserving storage.
	OrderColumn bool
}

// Mapping is a generated Shared Inlining schema for one DTD.
type Mapping struct {
	DTD  *xmltree.DTD
	Root string
	Opts Options
	// Tables maps element name → table map, for elements that own tables.
	Tables map[string]*TableMap
	// TableOrder lists table element names parent-before-child.
	TableOrder []string
}

// Table returns the table map for an element name, or nil.
func (m *Mapping) Table(element string) *TableMap { return m.Tables[element] }

// sqlReserved lists identifiers that would collide with the SQL subset's
// keywords in generated statements (the TPC-W schema's Order element is the
// motivating case).
var sqlReserved = map[string]bool{
	"ORDER": true, "SELECT": true, "FROM": true, "WHERE": true, "DELETE": true,
	"UPDATE": true, "INSERT": true, "CREATE": true, "TABLE": true, "INDEX": true,
	"TRIGGER": true, "BY": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"IS": true, "NULL": true, "VALUES": true, "SET": true, "INTO": true,
	"UNION": true, "ALL": true, "WITH": true, "AS": true, "ON": true, "FOR": true,
	"EACH": true, "ROW": true, "STATEMENT": true, "AFTER": true, "DROP": true,
	"MIN": true, "MAX": true, "COUNT": true, "DISTINCT": true, "ID": true,
	"PARENTID": true, "POS": true, "INTEGER": true, "VARCHAR": true,
}

// sqlName converts an XML name into a safe SQL identifier.
func sqlName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r == '-' || r == '.' || r == ':':
			b.WriteByte('_')
		default:
			b.WriteRune(r)
		}
	}
	s := b.String()
	if sqlReserved[strings.ToUpper(s)] {
		return s + "_t"
	}
	return s
}

// BuildMapping derives the Shared Inlining relational schema from a DTD
// (§5.1): child elements with 1:1 occurrence are inlined as columns of their
// parent's table; children with 1:n occurrence get tables of their own with
// id/parentId linkage. Elements with multiple parents in the DTD, and
// recursive elements, also get their own tables.
func BuildMapping(dtd *xmltree.DTD, root string, opts Options) (*Mapping, error) {
	if dtd.Elements[root] == nil {
		return nil, fmt.Errorf("shred: DTD does not declare root element %q", root)
	}
	m := &Mapping{DTD: dtd, Root: root, Opts: opts, Tables: make(map[string]*TableMap)}

	// Elements with more than one distinct DTD parent cannot be inlined
	// into a single table.
	parents := make(map[string]map[string]bool)
	for _, e := range dtd.ElementNames() {
		for _, c := range dtd.ChildNamesOrdered(e) {
			if parents[c] == nil {
				parents[c] = make(map[string]bool)
			}
			parents[c][e] = true
		}
	}
	multiParent := func(e string) bool { return len(parents[e]) > 1 }

	var buildTable func(element, parentTable string) error
	usedNames := make(map[string]bool)
	buildTable = func(element, parentTable string) error {
		if _, dup := m.Tables[element]; dup {
			// Shared table: the element already has a table (reached via a
			// different parent). The parentId column is shared.
			return nil
		}
		name := sqlName(element)
		for usedNames[strings.ToLower(name)] {
			name += "_x"
		}
		usedNames[strings.ToLower(name)] = true
		tm := &TableMap{Element: element, Name: name, Parent: parentTable}
		m.Tables[element] = tm
		m.TableOrder = append(m.TableOrder, element)

		var pendingChildren []string
		var inline func(elem string, path []string, onPath map[string]bool) error
		inline = func(elem string, path []string, onPath map[string]bool) error {
			prefix := strings.Join(path, "_")
			colName := func(suffix string) string {
				n := suffix
				if prefix != "" {
					n = prefix + "_" + suffix
				}
				n = sqlName(n)
				for tm.Column(n) != nil {
					n += "_x"
				}
				return n
			}
			// Attributes become columns.
			for _, ad := range dtd.AttrDecls(elem) {
				tm.Columns = append(tm.Columns, ColumnMap{
					Name:    colName("a_" + ad.Name),
					Path:    append([]string(nil), path...),
					Attr:    ad.Name,
					Kind:    AttrColumn,
					RefKind: ad.Type,
				})
			}
			decl := dtd.Elements[elem]
			hasText := decl != nil && (decl.Kind == xmltree.ContentPCDATA || decl.Kind == xmltree.ContentMixed || decl.Kind == xmltree.ContentAny)
			if hasText {
				tm.Columns = append(tm.Columns, ColumnMap{
					Name: colName("v"),
					Path: append([]string(nil), path...),
					Kind: TextColumn,
				})
			}
			occ := dtd.ChildOccurrences(elem)
			inlinedAny := false
			for _, child := range dtd.ChildNamesOrdered(elem) {
				switch {
				case !occ[child].AtMostOnce(), multiParent(child), onPath[child], dtd.Elements[child] == nil:
					// Needs its own table (1:n, shared, recursive, or
					// undeclared — treated as repeatable).
					pendingChildren = append(pendingChildren, child)
				default:
					inlinedAny = true
					if len(path) == 0 {
						tm.InlinedChildren = append(tm.InlinedChildren, child)
					}
					onPath[child] = true
					if err := inline(child, append(path, child), onPath); err != nil {
						return err
					}
					delete(onPath, child)
				}
			}
			// A non-root inlined element that is itself non-leaf gets a
			// presence flag (§6.1).
			if len(path) > 0 && (inlinedAny || hasText || len(dtd.AttrDecls(elem)) > 0) {
				if !hasText && len(dtd.AttrDecls(elem)) == 0 {
					tm.Columns = append(tm.Columns, ColumnMap{
						Name: colName("f"),
						Path: append([]string(nil), path...),
						Kind: FlagColumn,
					})
				}
			} else if len(path) > 0 && !hasText {
				// Empty declared element: presence must still be recordable.
				tm.Columns = append(tm.Columns, ColumnMap{
					Name: colName("f"),
					Path: append([]string(nil), path...),
					Kind: FlagColumn,
				})
			}
			return nil
		}
		if err := inline(element, nil, map[string]bool{element: true}); err != nil {
			return err
		}
		for _, child := range pendingChildren {
			// A child shared by the table element and an inlined
			// descendant is pending twice but has one table.
			if !contains(tm.ChildTables, child) {
				tm.ChildTables = append(tm.ChildTables, child)
			}
		}
		for _, child := range pendingChildren {
			if err := buildTable(child, element); err != nil {
				return err
			}
		}
		return nil
	}
	if err := buildTable(root, ""); err != nil {
		return nil, err
	}
	for _, tm := range m.Tables {
		tm.shape = compileShape(dtd, tm, tm.Element, nil)
	}
	return m, nil
}

// CreateTablesSQL returns the CREATE TABLE and CREATE INDEX statements for
// the mapping: one table per 1:n element with id/parentId columns, indexed
// on both (the paper's schema setup). Ordered B+tree indexes ride along:
// (id) streams each relation in document order for the Sorted Outer Union
// (its writes are ascending-id appends, so maintenance stays cheap), and
// (parentId, pos) — under order-preserving storage — turns sibling-window
// position maintenance into range probes. Child branches of the outer
// union need per-parent id order, which the executor gets by sorting each
// parentId hash bucket; a (parentId, id) B+tree would buy the same order
// at a mid-tree insertion per copied tuple.
func (m *Mapping) CreateTablesSQL() []string {
	var out []string
	for _, elem := range m.TableOrder {
		tm := m.Tables[elem]
		var cols []string
		cols = append(cols, "id INTEGER", "parentId INTEGER")
		if m.Opts.OrderColumn {
			cols = append(cols, "pos INTEGER")
		}
		for _, c := range tm.Columns {
			typ := "VARCHAR(255)"
			if c.Kind == FlagColumn {
				typ = "INTEGER"
			}
			cols = append(cols, c.Name+" "+typ)
		}
		out = append(out, fmt.Sprintf("CREATE TABLE %s (%s)", tm.Name, strings.Join(cols, ", ")))
		out = append(out, fmt.Sprintf("CREATE INDEX idx_%s_id ON %s (id)", tm.Name, tm.Name))
		out = append(out, fmt.Sprintf("CREATE INDEX idx_%s_parent ON %s (parentId)", tm.Name, tm.Name))
		out = append(out, fmt.Sprintf("CREATE ORDERED INDEX oidx_%s_id ON %s (id)", tm.Name, tm.Name))
		if m.Opts.OrderColumn {
			out = append(out, fmt.Sprintf("CREATE ORDERED INDEX oidx_%s_pos ON %s (parentId, pos)", tm.Name, tm.Name))
		}
	}
	return out
}

// ParentChain returns the table elements from the root down to element,
// inclusive. It returns nil if the element has no table.
func (m *Mapping) ParentChain(element string) []string {
	tm := m.Tables[element]
	if tm == nil {
		return nil
	}
	var chain []string
	for e := element; e != ""; {
		chain = append(chain, e)
		e = m.Tables[e].Parent
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Descendants returns element and every table element below it, in
// parent-before-child order.
func (m *Mapping) Descendants(element string) []string {
	var out []string
	var walk func(e string)
	walk = func(e string) {
		tm := m.Tables[e]
		if tm == nil {
			return
		}
		out = append(out, e)
		for _, c := range tm.ChildTables {
			walk(c)
		}
	}
	walk(element)
	return out
}

// TableForPath resolves a path of element names from the root (e.g.
// CustDB/Customer/Order) to the table element that stores the final step,
// returning also the remaining inlined path within that table.
func (m *Mapping) TableForPath(path []string) (tableElem string, inlined []string, err error) {
	if len(path) == 0 || path[0] != m.Root {
		return "", nil, fmt.Errorf("shred: path must start at root %q", m.Root)
	}
	cur := m.Root
	for i := 1; i < len(path); i++ {
		step := path[i]
		if _, ok := m.Tables[step]; ok && contains(m.Tables[cur].ChildTables, step) {
			cur = step
			continue
		}
		// The rest of the path must be inlined within cur's table.
		return cur, path[i:], nil
	}
	return cur, nil, nil
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// FindColumn locates the column storing the item at the given inlined path
// below a table element: attr != "" selects that attribute's column, attr ==
// "" selects the PCDATA column. It returns nil if the path is not inlined in
// the table.
func (m *Mapping) FindColumn(tableElem string, path []string, attr string) *ColumnMap {
	tm := m.Tables[tableElem]
	if tm == nil {
		return nil
	}
	want := strings.Join(path, "/")
	for i := range tm.Columns {
		c := &tm.Columns[i]
		if strings.Join(c.Path, "/") != want {
			continue
		}
		if attr != "" {
			if c.Kind == AttrColumn && c.Attr == attr {
				return c
			}
			continue
		}
		if c.Kind == TextColumn {
			return c
		}
	}
	return nil
}

// FlagColumnFor returns the presence-flag column of an inlined path, if one
// exists.
func (m *Mapping) FlagColumnFor(tableElem string, path []string) *ColumnMap {
	tm := m.Tables[tableElem]
	if tm == nil {
		return nil
	}
	want := strings.Join(path, "/")
	for i := range tm.Columns {
		c := &tm.Columns[i]
		if c.Kind == FlagColumn && strings.Join(c.Path, "/") == want {
			return c
		}
	}
	return nil
}

// ColumnsUnder returns every column at or below an inlined path, for
// NULLing-out a deleted inlined element (§6.1 "simple" deletions).
func (m *Mapping) ColumnsUnder(tableElem string, path []string) []*ColumnMap {
	tm := m.Tables[tableElem]
	if tm == nil {
		return nil
	}
	prefix := strings.Join(path, "/")
	var out []*ColumnMap
	for i := range tm.Columns {
		c := &tm.Columns[i]
		p := strings.Join(c.Path, "/")
		if p == prefix || strings.HasPrefix(p, prefix+"/") {
			out = append(out, c)
		}
	}
	return out
}

// valueToSQL renders a column value for embedding into generated SQL.
func valueToSQL(v relational.Value) string { return relational.FormatValue(v) }
