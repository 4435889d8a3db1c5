// Package asr implements Access Support Relations (§5.3, after Kemper &
// Moerkotte): a path index over the shredded XML tree. Each ASR tuple
// encodes one root-to-leaf path of tuple ids, left-complete — NULLs appear
// only at the bottom of the tree. The ASR accelerates long path expressions
// and supports the ASR-based delete and insert strategies of §6.
package asr

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/shred"
)

// ASR is a built access support relation over a mapping.
type ASR struct {
	M *shred.Mapping
	// Name is the SQL table name ("ASR").
	Name string
	// Depth is the number of levels (columns c0…c{Depth-1}).
	Depth int
	// LevelOf maps a table element to its level. The mapping must be
	// tree-shaped: an element reachable from two parents has no single
	// level and is rejected at build time.
	LevelOf map[string]int
}

// Attach derives the ASR structure (levels and depth) for a mapping
// without touching the database. A freshly recovered store uses it to
// re-adopt an ASR table that crash recovery already rebuilt — the struct is
// a pure function of the mapping, so recomputing it is exact.
func Attach(m *shred.Mapping) (*ASR, error) {
	a := &ASR{M: m, Name: "ASR", LevelOf: make(map[string]int)}
	// A table reachable from more than one parent table (a shared table)
	// has no single depth: reject such mappings.
	parentCount := make(map[string]int)
	for _, elem := range m.TableOrder {
		for _, c := range m.Table(elem).ChildTables {
			parentCount[c]++
		}
	}
	for elem, n := range parentCount {
		if n > 1 {
			return nil, fmt.Errorf("asr: element %q appears under %d parents; ASR requires a tree-shaped mapping", elem, n)
		}
	}
	for _, elem := range m.TableOrder {
		chain := m.ParentChain(elem)
		level := len(chain) - 1
		a.LevelOf[elem] = level
		if level+1 > a.Depth {
			a.Depth = level + 1
		}
	}
	return a, nil
}

// Build creates and populates the ASR table for the mapping's current data.
// The mark column supports the §6.1.3/§6.2.3 marking scheme.
func Build(db *relational.DB, m *shred.Mapping) (*ASR, error) {
	a, err := Attach(m)
	if err != nil {
		return nil, err
	}
	// Shared tables (same element under two parents) yield one chain, but a
	// child of a shared table would recurse; Descendants handles trees only.
	cols := make([]string, 0, a.Depth+1)
	for i := 0; i < a.Depth; i++ {
		cols = append(cols, fmt.Sprintf("c%d INTEGER", i))
	}
	cols = append(cols, "mark INTEGER")
	if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (%s)", a.Name, strings.Join(cols, ", "))); err != nil {
		return nil, err
	}
	for i := 0; i < a.Depth; i++ {
		if _, err := db.Exec(fmt.Sprintf("CREATE INDEX idx_asr_c%d ON %s (c%d)", i, a.Name, i)); err != nil {
			return nil, err
		}
	}
	if err := a.populate(db); err != nil {
		return nil, err
	}
	return a, nil
}

// populate walks the stored tuples parent-to-child and loads one path per
// leaf tuple (left-complete: interior tuples with no children also
// contribute a NULL-padded path so every tuple appears in the ASR).
func (a *ASR) populate(db *relational.DB) error {
	kids, err := a.children(db)
	if err != nil {
		return err
	}
	var rows [][]relational.Value
	var walk func(elem string, path []relational.Value)
	walk = func(elem string, path []relational.Value) {
		hasChild := false
		last, _ := path[len(path)-1].Int()
		for _, childElem := range a.M.Table(elem).ChildTables {
			for _, cid := range kids[childElem][last] {
				hasChild = true
				walk(childElem, append(path, relational.Int(cid)))
			}
		}
		if !hasChild {
			row := make([]relational.Value, a.Depth+1)
			copy(row, path)
			row[a.Depth] = relational.Int(0) // mark
			rows = append(rows, row)
		}
	}
	// The root's NULL parentId reads as 0.
	for _, rootID := range kids[a.M.Root][0] {
		walk(a.M.Root, []relational.Value{relational.Int(rootID)})
	}
	return db.BulkLoad(map[string][][]relational.Value{a.Name: rows})
}

// children reads every table's (id, parentId) pairs inside one snapshot,
// returning child ids by parent id per table element (NULL parents as 0).
func (a *ASR) children(db *relational.DB) (map[string]map[int64][]int64, error) {
	tx := db.Begin()
	defer tx.Rollback()
	kids := make(map[string]map[int64][]int64, len(a.M.TableOrder))
	for _, elem := range a.M.TableOrder {
		name := a.M.Table(elem).Name
		byParent := make(map[int64][]int64)
		_, err := tx.QueryEach("SELECT id, parentId FROM "+name, func(row []relational.Value) error {
			id, _ := row[0].Int()
			pid, _ := row[1].Int()
			byParent[pid] = append(byParent[pid], id)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("asr: reading table %s: %w", name, err)
		}
		kids[elem] = byParent
	}
	return kids, nil
}

// Col returns the ASR column name for a level.
func (a *ASR) Col(level int) string { return fmt.Sprintf("c%d", level) }

// MarkSubtrees marks every path passing through the given tuples of elem
// (§6.1.3 step 1). It returns the generated SQL statements executed.
func (a *ASR) MarkSubtrees(db relational.Session, elem string, ids []int64) ([]string, error) {
	level, ok := a.LevelOf[elem]
	if !ok {
		return nil, fmt.Errorf("asr: element %q has no level", elem)
	}
	sql := fmt.Sprintf("UPDATE %s SET mark = 1 WHERE %s IN (%s)", a.Name, a.Col(level), idList(ids))
	if _, err := db.Exec(sql); err != nil {
		return nil, err
	}
	return []string{sql}, nil
}

// MarkedIDs returns the distinct marked tuple ids at a level (the ids of
// descendants below the delete/copy point).
func (a *ASR) MarkedIDs(db relational.Session, level int) ([]int64, error) {
	rows, err := db.Query(fmt.Sprintf("SELECT DISTINCT %s FROM %s WHERE mark = 1 AND %s IS NOT NULL",
		a.Col(level), a.Name, a.Col(level)))
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(rows.Data))
	for _, r := range rows.Data {
		out = append(out, r[0].MustInt())
	}
	return out, nil
}

// DeleteMarked removes marked paths and repairs left-completeness: ancestors
// of deleted subtrees that lost their last path are re-inserted as truncated
// NULL-padded paths (this is the §6.1.3 "update the ASR to reflect the
// current state" step, and the overhead the paper measures).
func (a *ASR) DeleteMarked(db relational.Session, elem string, ids []int64) error {
	level := a.LevelOf[elem]
	// Capture the ancestor prefixes of marked paths before deleting them.
	var prefixCols []string
	for i := 0; i < level; i++ {
		prefixCols = append(prefixCols, a.Col(i))
	}
	var prefixes *relational.Rows
	if level > 0 {
		var err error
		prefixes, err = db.Query(fmt.Sprintf("SELECT DISTINCT %s FROM %s WHERE mark = 1",
			strings.Join(prefixCols, ", "), a.Name))
		if err != nil {
			return err
		}
	}
	if _, err := db.Exec(fmt.Sprintf("DELETE FROM %s WHERE mark = 1", a.Name)); err != nil {
		return err
	}
	if prefixes == nil {
		return nil
	}
	// One `?` survivor-count probe, bound per ancestor prefix; the
	// parent-level column is indexed, so each check is a probe.
	count := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = ?", a.Name, a.Col(level-1))
	for _, pre := range prefixes.Data {
		parentID := pre[level-1]
		if parentID.IsNull() {
			continue
		}
		rows, err := db.Query(count, parentID)
		if err != nil {
			return err
		}
		if rows.Data[0][0].MustInt() > 0 {
			continue
		}
		vals := make([]string, a.Depth+1)
		for i := range vals {
			vals[i] = "NULL"
		}
		for i, v := range pre {
			vals[i] = relational.FormatValue(v)
		}
		vals[a.Depth] = "0"
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", a.Name, strings.Join(vals, ", "))); err != nil {
			return err
		}
	}
	return nil
}

// Unmark clears all marks (§6.2.3 insert uses mark/unmark around copying).
func (a *ASR) Unmark(db relational.Session) error {
	_, err := db.Exec(fmt.Sprintf("UPDATE %s SET mark = 0 WHERE mark = 1", a.Name))
	return err
}

// InsertPaths adds new paths for an inserted subtree. Each path is a slice
// of ids from the root level down; shorter paths are NULL-padded.
func (a *ASR) InsertPaths(db relational.Session, paths [][]relational.Value) error {
	for _, p := range paths {
		vals := make([]string, a.Depth+1)
		for i := range vals {
			vals[i] = "NULL"
		}
		for i, v := range p {
			vals[i] = relational.FormatValue(v)
		}
		vals[a.Depth] = "0"
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%s)", a.Name, strings.Join(vals, ", "))); err != nil {
			return err
		}
	}
	return nil
}

// PathQuerySQL builds the §5.3 accelerated path query: join the leaf table
// to the ASR and the ASR to the start table, skipping all intermediate
// relations. leafCond filters the leaf table (alias L); the select list
// draws from the start table (alias S). The ASR holds one row per complete
// path through a tuple, so the (start, leaf) pairs are deduplicated before
// S is joined: the answer is the conventional join's multiset, one row per
// matching leaf tuple, at every leaf level.
func (a *ASR) PathQuerySQL(startElem, leafElem, selectCols, leafCond string) (string, error) {
	sl, ok := a.LevelOf[startElem]
	if !ok {
		return "", fmt.Errorf("asr: no level for %q", startElem)
	}
	ll, ok := a.LevelOf[leafElem]
	if !ok {
		return "", fmt.Errorf("asr: no level for %q", leafElem)
	}
	start := a.M.Table(startElem)
	leaf := a.M.Table(leafElem)
	sql := fmt.Sprintf("WITH P (sid, lid) AS (SELECT DISTINCT A.%s, A.%s FROM %s L, %s A WHERE %s AND A.%s = L.id) "+
		"SELECT %s FROM P, %s S WHERE S.id = P.sid",
		a.Col(sl), a.Col(ll), leaf.Name, a.Name, leafCond, a.Col(ll), selectCols, start.Name)
	return sql, nil
}

func idList(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return strings.Join(parts, ", ")
}
