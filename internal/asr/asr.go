// Package asr implements Access Support Relations (§5.3, after Kemper &
// Moerkotte): a path index over the shredded XML tree. Each ASR tuple
// encodes one root-to-leaf path of tuple ids, left-complete — NULLs appear
// only at the bottom of the tree. The ASR accelerates long path expressions
// and supports the ASR-based delete and insert strategies of §6.
//
// The package owns the ASR's layout: the table name, one column per level
// (c0…c{depth-1}) and the mark column of the §6.1.3/§6.2.3 marking scheme.
// Callers name elements and tuple ids; every ASR statement is written here.
// New paths come from two writers, one per way of allocating ids: the walk
// writer turns tuples allocated one at a time into their left-complete
// paths (Build, InsertTuples), and the offset writer copies a subtree's
// paths under one id offset with a single INSERT…SELECT (CopyPaths,
// CopyMarkedPaths).
package asr

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/shred"
)

// table is the ASR's SQL table name.
const table = "ASR"

// ASR is a built access support relation over a mapping.
type ASR struct {
	m *shred.Mapping
	// depth is the number of levels (columns c0…c{depth-1}).
	depth int
	// levelOf maps a table element to its level. The mapping must be
	// tree-shaped: an element reachable from two parents has no single
	// level and is rejected at build time.
	levelOf map[string]int
	// insertRow is the walk writer's one `?` text: a whole ASR row, the
	// level columns then the mark.
	insertRow string
}

// Attach derives the ASR structure (levels and depth) for a mapping
// without touching the database. A freshly recovered store uses it to
// re-adopt an ASR table that crash recovery already rebuilt — the struct is
// a pure function of the mapping, so recomputing it is exact.
func Attach(m *shred.Mapping) (*ASR, error) {
	a := &ASR{m: m, levelOf: make(map[string]int)}
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
		level := len(m.ParentChain(elem)) - 1
		a.levelOf[elem] = level
		a.depth = max(a.depth, level+1)
	}
	a.insertRow = fmt.Sprintf("INSERT INTO %s VALUES (?%s)", table, strings.Repeat(", ?", a.depth))
	return a, nil
}

// Build creates and populates the ASR table for the mapping's current data.
func Build(db *relational.DB, m *shred.Mapping) (*ASR, error) {
	a, err := Attach(m)
	if err != nil {
		return nil, err
	}
	cols := make([]string, 0, a.depth+1)
	for i := 0; i < a.depth; i++ {
		cols = append(cols, a.col(i)+" INTEGER")
	}
	cols = append(cols, "mark INTEGER")
	if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (%s)", table, strings.Join(cols, ", "))); err != nil {
		return nil, err
	}
	for i := 0; i < a.depth; i++ {
		if _, err := db.Exec(fmt.Sprintf("CREATE INDEX idx_asr_c%d ON %s (%s)", i, table, a.col(i))); err != nil {
			return nil, err
		}
	}
	kids, err := a.children(db)
	if err != nil {
		return nil, err
	}
	// The root's NULL parentId reads as 0.
	rows := a.walk(nil, kids, m.Root, kids[m.Root][0], nil)
	return a, db.BulkLoad(map[string][][]relational.Value{table: rows})
}

// children holds tuple ids by table element, then by parent id.
type children map[string]map[int64][]int64

func (k children) add(elem string, parent, id int64) {
	byParent := k[elem]
	if byParent == nil {
		byParent = make(map[int64][]int64)
		k[elem] = byParent
	}
	byParent[parent] = append(byParent[parent], id)
}

// children reads every table's (id, parentId) pairs inside one snapshot
// (NULL parents as 0).
func (a *ASR) children(db *relational.DB) (children, error) {
	tx := db.Begin()
	defer tx.Rollback()
	kids := make(children, len(a.m.TableOrder))
	for _, elem := range a.m.TableOrder {
		name := a.m.Table(elem).Name
		_, err := tx.QueryEach("SELECT id, parentId FROM "+name, func(row []relational.Value) error {
			id, _ := row[0].Int()
			pid, _ := row[1].Int()
			kids.add(elem, pid, id)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("asr: reading table %s: %w", name, err)
		}
	}
	return kids, nil
}

// walk is the walk writer: it appends to out one left-complete path per
// leaf below the tuples ids of elem, each path starting with prefix. A
// tuple without children in kids is a leaf, so interior tuples with no
// children contribute a NULL-padded path and every tuple appears in the
// ASR. Paths are whole ASR rows, mark cleared.
func (a *ASR) walk(out [][]relational.Value, kids children, elem string, ids []int64, prefix []relational.Value) [][]relational.Value {
	for _, id := range ids {
		path := append(prefix, relational.Int(id))
		leaf := true
		for _, ce := range a.m.Table(elem).ChildTables {
			if cids := kids[ce][id]; len(cids) > 0 {
				leaf = false
				out = a.walk(out, kids, ce, cids, path)
			}
		}
		if leaf {
			row := make([]relational.Value, a.depth+1)
			copy(row, path)
			row[a.depth] = relational.Int(0)
			out = append(out, row)
		}
	}
	return out
}

// Tuple is one newly stored tuple: its table element, id and parent id.
type Tuple struct {
	Elem       string
	ID, Parent int64
}

// InsertTuples adds the paths of new tuples allocated one at a time: the
// subtrees rooted at the tuples of elem whose parent is dst, which must
// already be stored. Each path is one INSERT of the walk writer's `?` text.
func (a *ASR) InsertTuples(db relational.Session, elem string, dst int64, tuples []Tuple) error {
	prefix, err := a.chain(db, elem, dst)
	if err != nil {
		return err
	}
	kids := make(children)
	for _, t := range tuples {
		kids.add(t.Elem, t.Parent, t.ID)
	}
	for _, row := range a.walk(nil, kids, elem, kids[elem][dst], prefix) {
		if _, err := db.Exec(a.insertRow, row...); err != nil {
			return err
		}
	}
	return nil
}

// CopyPaths is the offset writer for a copy that reserved one id offset:
// the paths through the tuples roots of elem are inserted again with every
// level from elem's down shifted by offset, under the ancestors of dst.
// The roots' level column is indexed, so the selection is a probe.
func (a *ASR) CopyPaths(db relational.Session, elem string, roots []int64, offset, dst int64) error {
	return a.copyPaths(db, elem, fmt.Sprintf("%s IN (%s)", a.col(a.levelOf[elem]), idList(roots)), offset, dst)
}

// CopyMarkedPaths is the offset writer over the marked paths, the §6.2.3
// step that adds the ASR insert strategy's new paths.
func (a *ASR) CopyMarkedPaths(db relational.Session, elem string, offset, dst int64) error {
	return a.copyPaths(db, elem, "mark = 1", offset, dst)
}

// copyPaths adds, in one INSERT…SELECT, a copy of the selected paths:
// ancestor levels take the destination chain as constants, elem's level
// and those below it are offset.
func (a *ASR) copyPaths(db relational.Session, elem, selection string, offset, dst int64) error {
	level := a.levelOf[elem]
	prefix, err := a.chain(db, elem, dst)
	if err != nil {
		return err
	}
	exprs := make([]string, a.depth+1)
	for i := 0; i < a.depth; i++ {
		if i < level {
			exprs[i] = relational.FormatValue(prefix[i])
		} else {
			exprs[i] = fmt.Sprintf("%s + %d", a.col(i), offset)
		}
	}
	exprs[a.depth] = "0"
	_, err = db.Exec(fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s WHERE %s",
		table, strings.Join(exprs, ", "), table, selection))
	return err
}

// chain returns the tuple ids from the root down to dst, the parent of a
// new tuple of elem, by following parentId upwards: the prefix of every
// path through that tuple.
func (a *ASR) chain(db relational.Session, elem string, dst int64) ([]relational.Value, error) {
	level := a.levelOf[elem]
	if level == 0 {
		return nil, nil
	}
	chainElems := a.m.ParentChain(a.m.Table(elem).Parent)
	out := make([]relational.Value, level, a.depth)
	cur := dst
	for i := level - 1; i >= 0; i-- {
		out[i] = relational.Int(cur)
		if i == 0 {
			break
		}
		tm := a.m.Table(chainElems[i])
		rows, err := db.Query(fmt.Sprintf("SELECT parentId FROM %s WHERE id = %d", tm.Name, cur))
		if err != nil {
			return nil, err
		}
		if len(rows.Data) != 1 {
			return nil, fmt.Errorf("asr: tuple %d not found in %s", cur, tm.Name)
		}
		pid, ok := rows.Data[0][0].Int()
		if !ok {
			return nil, fmt.Errorf("asr: tuple %d in %s has NULL parent", cur, tm.Name)
		}
		cur = pid
	}
	return out, nil
}

// col returns the ASR column name for a level.
func (a *ASR) col(level int) string { return fmt.Sprintf("c%d", level) }

// MarkSubtrees marks every path passing through the given tuples of elem
// (§6.1.3 step 1).
func (a *ASR) MarkSubtrees(db relational.Session, elem string, ids []int64) error {
	level, ok := a.levelOf[elem]
	if !ok {
		return fmt.Errorf("asr: element %q has no level", elem)
	}
	_, err := db.Exec(fmt.Sprintf("UPDATE %s SET mark = 1 WHERE %s IN (%s)", table, a.col(level), idList(ids)))
	return err
}

// Marked returns a subquery selecting the distinct ids of elem's tuples on
// marked paths: the tuples at and below the delete or copy point, for the
// ASR strategies' per-table statements to embed as `id IN (…)`.
func (a *ASR) Marked(elem string) string {
	c := a.col(a.levelOf[elem])
	return fmt.Sprintf("SELECT DISTINCT %s FROM %s WHERE mark = 1 AND %s IS NOT NULL", c, table, c)
}

// MarkedRange returns the least and greatest tuple id on marked paths over
// the tables of elem's subtree, one aggregate per table; ok is false when
// no path is marked.
func (a *ASR) MarkedRange(db relational.Session, elem string) (lo, hi int64, ok bool, err error) {
	for _, e := range a.m.Descendants(elem) {
		c := a.col(a.levelOf[e])
		agg, err := db.Query(fmt.Sprintf("SELECT MIN(%s), MAX(%s) FROM %s WHERE mark = 1", c, c, table))
		if err != nil {
			return 0, 0, false, err
		}
		l, ok1 := agg.Data[0][0].Int()
		h, ok2 := agg.Data[0][1].Int()
		if !ok1 || !ok2 {
			continue
		}
		if !ok || l < lo {
			lo = l
		}
		if !ok || h > hi {
			hi = h
		}
		ok = true
	}
	return lo, hi, ok, nil
}

// DeleteMarked removes marked paths and repairs left-completeness: ancestors
// of deleted subtrees that lost their last path are re-inserted as truncated
// NULL-padded paths (this is the §6.1.3 "update the ASR to reflect the
// current state" step, and the overhead the paper measures). The marks sit
// on paths through tuples of elem.
func (a *ASR) DeleteMarked(db relational.Session, elem string) error {
	level := a.levelOf[elem]
	// Capture the ancestor prefixes of marked paths before deleting them.
	var prefixCols []string
	for i := 0; i < level; i++ {
		prefixCols = append(prefixCols, a.col(i))
	}
	var prefixes *relational.Rows
	if level > 0 {
		var err error
		prefixes, err = db.Query(fmt.Sprintf("SELECT DISTINCT %s FROM %s WHERE mark = 1",
			strings.Join(prefixCols, ", "), table))
		if err != nil {
			return err
		}
	}
	if _, err := db.Exec(fmt.Sprintf("DELETE FROM %s WHERE mark = 1", table)); err != nil {
		return err
	}
	if prefixes == nil {
		return nil
	}
	// One `?` survivor-count probe, bound per ancestor prefix; the
	// parent-level column is indexed, so each check is a probe.
	count := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = ?", table, a.col(level-1))
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
		row := make([]relational.Value, a.depth+1)
		copy(row, pre)
		row[a.depth] = relational.Int(0)
		if _, err := db.Exec(a.insertRow, row...); err != nil {
			return err
		}
	}
	return nil
}

// DeleteOrphans deletes the paths through tuples of elem that a delete
// outside the marking scheme (a trigger or an application cascade)
// removed: it marks the paths whose elem-level id no longer exists, then
// deletes them as DeleteMarked does.
func (a *ASR) DeleteOrphans(db relational.Session, elem string) error {
	c := a.col(a.levelOf[elem])
	mark := fmt.Sprintf("UPDATE %s SET mark = 1 WHERE %s IS NOT NULL AND %s NOT IN (SELECT id FROM %s)",
		table, c, c, a.m.Table(elem).Name)
	if _, err := db.Exec(mark); err != nil {
		return err
	}
	return a.DeleteMarked(db, elem)
}

// Unmark clears all marks (§6.2.3 insert uses mark/unmark around copying).
func (a *ASR) Unmark(db relational.Session) error {
	_, err := db.Exec(fmt.Sprintf("UPDATE %s SET mark = 0 WHERE mark = 1", table))
	return err
}

// PathQuerySQL builds the §5.3 accelerated path query: join the leaf table
// to the ASR and the ASR to the start table, skipping all intermediate
// relations. leafCond filters the leaf table (alias L); the select list
// draws from the start table (alias S). The ASR holds one row per complete
// path through a tuple, so the (start, leaf) pairs are deduplicated before
// S is joined: the answer is the conventional join's multiset, one row per
// matching leaf tuple, at every leaf level.
func (a *ASR) PathQuerySQL(startElem, leafElem, selectCols, leafCond string) (string, error) {
	sl, ok := a.levelOf[startElem]
	if !ok {
		return "", fmt.Errorf("asr: no level for %q", startElem)
	}
	ll, ok := a.levelOf[leafElem]
	if !ok {
		return "", fmt.Errorf("asr: no level for %q", leafElem)
	}
	start := a.m.Table(startElem)
	leaf := a.m.Table(leafElem)
	sql := fmt.Sprintf("WITH P (sid, lid) AS (SELECT DISTINCT A.%s, A.%s FROM %s L, %s A WHERE %s AND A.%s = L.id) "+
		"SELECT %s FROM P, %s S WHERE S.id = P.sid",
		a.col(sl), a.col(ll), leaf.Name, table, leafCond, a.col(ll), selectCols, start.Name)
	return sql, nil
}

func idList(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return strings.Join(parts, ", ")
}
