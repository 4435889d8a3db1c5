package engine

import (
	"fmt"
	"strings"

	"repro/internal/relational"
)

// CopySubtrees copies every subtree rooted at tuples of srcElem matching the
// SQL condition (over srcElem's table, alias T for the outer union, or
// unqualified columns otherwise) to become children of the tuple
// dstParentID, using the store's configured insert method. Copy semantics:
// all tuples are replicated with fresh ids that preserve connectivity
// (§6.2). It returns the number of subtree roots copied.
func (s *Store) CopySubtrees(srcElem, where string, dstParentID int64) (int, error) {
	if s.M.Table(srcElem) == nil {
		return 0, fmt.Errorf("engine: element %q has no table; use InsertInlined for simple insertions", srcElem)
	}
	// Every insert method is a statement sequence (staging, remapping,
	// replication, ASR paths); run it atomically so a mid-sequence failure
	// leaves no partial copy and returns the reserved ids.
	var n int
	err := s.atomically(func() error {
		var err error
		switch s.Opt.Insert {
		case TupleInsert:
			n, err = s.tupleInsert(srcElem, where, dstParentID)
		case TableInsert:
			n, err = s.tableInsert(srcElem, where, dstParentID)
		case ASRInsert:
			n, err = s.asrInsert(srcElem, where, dstParentID)
		default:
			err = fmt.Errorf("engine: unknown insert method %v", s.Opt.Insert)
		}
		return err
	})
	return n, err
}

// tupleInsert implements §6.2.1: read the source subtree via Sorted Outer
// Union one tuple at a time, give every source element a new unique id
// through an in-memory mapping structure, and issue one INSERT per tuple.
func (s *Store) tupleInsert(srcElem, where string, dstParentID int64) (int, error) {
	plan, err := s.plan(srcElem)
	if err != nil {
		return 0, err
	}
	rows, err := s.sql().Query(plan.SQL(where))
	if err != nil {
		return 0, err
	}
	idMap := make(map[int64]int64)
	// One prepared INSERT per branch (Store-cached, so repeated copies
	// reuse the parse too): the per-tuple loop binds values instead of
	// re-formatting and re-parsing SQL for every tuple.
	inserts := make([]*relational.Prepared, len(plan.Branches))
	roots := 0
	for _, row := range rows.Data {
		bi, oldID, ok := plan.BranchOf(row)
		if !ok {
			return roots, fmt.Errorf("engine: malformed outer union row")
		}
		b := &plan.Branches[bi]
		newID := s.AllocateIDs(1) // gapless allocation (§6.2.1)
		idMap[oldID] = newID
		tm := s.M.Table(b.Elem)
		var parent relational.Value
		if bi == 0 {
			parent = relational.Int(dstParentID)
			roots++
		} else {
			oldParent, ok := row[plan.Branches[b.Parent].ID].Int()
			if !ok {
				return roots, fmt.Errorf("engine: child tuple with NULL parent key")
			}
			np, ok := idMap[oldParent]
			if !ok {
				return roots, fmt.Errorf("engine: parent %d not yet remapped (sort violated)", oldParent)
			}
			parent = relational.Int(np)
		}
		p := inserts[bi]
		if p == nil {
			cols := []string{"id", "parentId"}
			marks := []string{"?", "?"}
			for _, c := range tm.Columns {
				cols = append(cols, c.Name)
				marks = append(marks, "?")
			}
			var err error
			p, err = s.prep(fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
				tm.Name, strings.Join(cols, ", "), strings.Join(marks, ", ")))
			if err != nil {
				return roots, err
			}
			inserts[bi] = p
		}
		args := append(make([]relational.Value, 0, b.NData+2), relational.Int(newID), parent)
		args = append(args, b.Data(row)...)
		if _, err := s.sql().ExecPrepared(p, args...); err != nil {
			return roots, err
		}
	}
	if s.ASR != nil {
		if err := s.rebuildASRPathsFor(srcElem, idMap, dstParentID); err != nil {
			return roots, err
		}
	}
	return roots, nil
}

// tableInsert implements §6.2.2: stage the source rows in temporary tables
// (one per data relation), remap all ids at once with the min/max offset
// heuristic, and insert en masse with one INSERT…SELECT per relation.
func (s *Store) tableInsert(srcElem, where string, dstParentID int64) (int, error) {
	subtree := s.M.Descendants(srcElem)
	temp := func(elem string) string { return "temp_" + s.M.Table(elem).Name }

	// Stage: temp tables populated top-down by joining to the parent temp.
	for i, elem := range subtree {
		tm := s.M.Table(elem)
		colDefs := []string{"id INTEGER", "parentId INTEGER"}
		if s.Opt.OrderColumn {
			colDefs = append(colDefs, "pos INTEGER")
		}
		for _, c := range tm.Columns {
			colDefs = append(colDefs, c.Name+" VARCHAR(255)")
		}
		if _, err := s.sql().Exec(fmt.Sprintf("CREATE TEMP TABLE %s (%s)", temp(elem), strings.Join(colDefs, ", "))); err != nil {
			return 0, err
		}
		cols := "id, parentId"
		if dl := dataColumnList(tm, s.Opt.OrderColumn); dl != "" {
			cols += ", " + dl
		}
		if i == 0 {
			sql := fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s", temp(elem), cols, tm.Name)
			if where != "" {
				sql += " WHERE " + where
			}
			if _, err := s.sql().Exec(sql); err != nil {
				return 0, err
			}
			continue
		}
		parentTemp := temp(s.parentWithin(subtree, elem))
		qualified := make([]string, 0, len(tm.Columns)+3)
		qualified = append(qualified, "C.id", "C.parentId")
		if s.Opt.OrderColumn {
			qualified = append(qualified, "C.pos")
		}
		for _, c := range tm.Columns {
			qualified = append(qualified, "C."+c.Name)
		}
		sql := fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s P, %s C WHERE C.parentId = P.id",
			temp(elem), strings.Join(qualified, ", "), parentTemp, tm.Name)
		if _, err := s.sql().Exec(sql); err != nil {
			return 0, err
		}
	}

	// Offset heuristic: minId/maxId over the staged tree, one aggregate
	// query per temp table.
	minID, maxID := int64(0), int64(0)
	first := true
	for _, elem := range subtree {
		rows, err := s.sql().Query(fmt.Sprintf("SELECT MIN(id), MAX(id) FROM %s", temp(elem)))
		if err != nil {
			return 0, err
		}
		lo, ok1 := rows.Data[0][0].Int()
		hi, ok2 := rows.Data[0][1].Int()
		if !ok1 || !ok2 {
			continue // empty staged table
		}
		if first || lo < minID {
			minID = lo
		}
		if first || hi > maxID {
			maxID = hi
		}
		first = false
	}
	roots := 0
	if rows, err := s.sql().Query(fmt.Sprintf("SELECT COUNT(*) FROM %s", temp(srcElem))); err == nil {
		roots = int(rows.Data[0][0].MustInt())
	}
	if first || roots == 0 {
		for _, elem := range subtree {
			if _, err := s.sql().Exec("DROP TABLE " + temp(elem)); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	offset := s.NextID() - minID
	s.AllocateIDs(maxID - minID + 1)

	// Remap: one arithmetic UPDATE per temp table, then point the copied
	// roots at their new parent. The Store-cached prepared statements keep
	// the remaps on the one-parse path like the tuple-insert loops.
	for i, elem := range subtree {
		remap, err := s.prep(fmt.Sprintf("UPDATE %s SET id = id + ?, parentId = parentId + ?", temp(elem)))
		if err != nil {
			return 0, err
		}
		if _, err := s.sql().ExecPrepared(remap, relational.Int(offset), relational.Int(offset)); err != nil {
			return 0, err
		}
		if i == 0 {
			repoint, err := s.prep(fmt.Sprintf("UPDATE %s SET parentId = ?", temp(elem)))
			if err != nil {
				return 0, err
			}
			if _, err := s.sql().ExecPrepared(repoint, relational.Int(dstParentID)); err != nil {
				return 0, err
			}
		}
	}

	// En-masse insert: a single statement per data relation, then cleanup.
	for _, elem := range subtree {
		tm := s.M.Table(elem)
		cols := "id, parentId"
		if dl := dataColumnList(tm, s.Opt.OrderColumn); dl != "" {
			cols += ", " + dl
		}
		if _, err := s.sql().Exec(fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s", tm.Name, cols, temp(elem))); err != nil {
			return 0, err
		}
		if _, err := s.sql().Exec("DROP TABLE " + temp(elem)); err != nil {
			return 0, err
		}
	}
	if s.ASR != nil {
		if err := s.insertASRPathsWithOffset(srcElem, where, offset, dstParentID, nil); err != nil {
			return roots, err
		}
	}
	return roots, nil
}

// parentWithin finds elem's parent among the subtree's tables.
func (s *Store) parentWithin(subtree []string, elem string) string {
	p := s.M.Table(elem).Parent
	for _, e := range subtree {
		if e == p {
			return e
		}
	}
	return subtree[0]
}

// asrInsert implements §6.2.3: mark the ASR paths through the source, use
// the marked ids to compute the offset and replicate tuples per relation
// with INSERT…SELECT, add new ASR paths, and unmark.
func (s *Store) asrInsert(srcElem, where string, dstParentID int64) (int, error) {
	if s.ASR == nil {
		return 0, fmt.Errorf("engine: ASR insert requires an ASR (set Options.Insert = ASRInsert at Open)")
	}
	tm := s.M.Table(srcElem)
	sql := fmt.Sprintf("SELECT id FROM %s", tm.Name)
	if where != "" {
		sql += " WHERE " + where
	}
	rows, err := s.sql().Query(sql)
	if err != nil {
		return 0, err
	}
	if len(rows.Data) == 0 {
		return 0, nil
	}
	srcIDs := make([]int64, 0, len(rows.Data))
	for _, r := range rows.Data {
		srcIDs = append(srcIDs, r[0].MustInt())
	}
	if _, err := s.ASR.MarkSubtrees(s.sql(), srcElem, srcIDs); err != nil {
		return 0, err
	}

	// Scan the ASR for all subtree ids and compute the remapping offset.
	subtree := s.M.Descendants(srcElem)
	minID, maxID := int64(0), int64(0)
	firstAgg := true
	for _, elem := range subtree {
		lvl := s.ASR.LevelOf[elem]
		agg, err := s.sql().Query(fmt.Sprintf("SELECT MIN(%s), MAX(%s) FROM %s WHERE mark = 1",
			s.ASR.Col(lvl), s.ASR.Col(lvl), s.ASR.Name))
		if err != nil {
			return 0, err
		}
		lo, ok1 := agg.Data[0][0].Int()
		hi, ok2 := agg.Data[0][1].Int()
		if !ok1 || !ok2 {
			continue
		}
		if firstAgg || lo < minID {
			minID = lo
		}
		if firstAgg || hi > maxID {
			maxID = hi
		}
		firstAgg = false
	}
	if firstAgg {
		return 0, s.ASR.Unmark(s.sql())
	}
	offset := s.NextID() - minID
	s.AllocateIDs(maxID - minID + 1)

	// Replicate each relation's marked tuples with the offset applied.
	for _, elem := range subtree {
		etm := s.M.Table(elem)
		lvl := s.ASR.LevelOf[elem]
		exprs := []string{fmt.Sprintf("id + %d", offset), fmt.Sprintf("parentId + %d", offset)}
		cols := []string{"id", "parentId"}
		if s.Opt.OrderColumn {
			exprs = append(exprs, "pos")
			cols = append(cols, "pos")
		}
		for _, c := range etm.Columns {
			exprs = append(exprs, c.Name)
			cols = append(cols, c.Name)
		}
		sql := fmt.Sprintf("INSERT INTO %s (%s) SELECT %s FROM %s WHERE id IN (SELECT DISTINCT %s FROM %s WHERE mark = 1 AND %s IS NOT NULL)",
			etm.Name, strings.Join(cols, ", "), strings.Join(exprs, ", "), etm.Name,
			s.ASR.Col(lvl), s.ASR.Name, s.ASR.Col(lvl))
		if _, err := s.sql().Exec(sql); err != nil {
			return 0, err
		}
	}
	// Point the copied roots at the destination parent: one prepared UPDATE
	// probing the id index, instead of minting a fresh IN-list statement
	// shape per root count.
	repoint, err := s.prep(fmt.Sprintf("UPDATE %s SET parentId = ? WHERE id = ?", tm.Name))
	if err != nil {
		return 0, err
	}
	for _, id := range srcIDs {
		if _, err := s.sql().ExecPrepared(repoint, relational.Int(dstParentID), relational.Int(id+offset)); err != nil {
			return 0, err
		}
	}
	if err := s.insertASRPathsWithOffset(srcElem, "", offset, dstParentID, srcIDs); err != nil {
		return 0, err
	}
	if err := s.ASR.Unmark(s.sql()); err != nil {
		return 0, err
	}
	return len(srcIDs), nil
}

// insertASRPathsWithOffset adds paths for a copied subtree in one
// INSERT…SELECT over the marked rows: ancestor levels take the destination
// chain as constants, subtree levels are offset. When called from the table
// method (no marks), it first marks the source rows, then unmarks.
func (s *Store) insertASRPathsWithOffset(srcElem, where string, offset int64, dstParentID int64, srcIDs []int64) error {
	level := s.ASR.LevelOf[srcElem]
	needMark := srcIDs == nil
	if needMark {
		tm := s.M.Table(srcElem)
		sql := fmt.Sprintf("SELECT id FROM %s", tm.Name)
		if where != "" {
			sql += " WHERE " + where
		}
		rows, err := s.sql().Query(sql)
		if err != nil {
			return err
		}
		for _, r := range rows.Data {
			srcIDs = append(srcIDs, r[0].MustInt())
		}
		if len(srcIDs) == 0 {
			return nil
		}
		if _, err := s.ASR.MarkSubtrees(s.sql(), srcElem, srcIDs); err != nil {
			return err
		}
	}
	var prefix []relational.Value
	if level > 0 {
		parentElem := s.M.Table(srcElem).Parent
		chain, err := s.chainIDs(parentElem, dstParentID)
		if err != nil {
			return err
		}
		prefix = chain
	}
	exprs := make([]string, s.ASR.Depth+1)
	for i := 0; i < s.ASR.Depth; i++ {
		switch {
		case i < level:
			exprs[i] = relational.FormatValue(prefix[i])
		default:
			exprs[i] = fmt.Sprintf("%s + %d", s.ASR.Col(i), offset)
		}
	}
	exprs[s.ASR.Depth] = "0"
	sql := fmt.Sprintf("INSERT INTO %s SELECT %s FROM %s WHERE mark = 1",
		s.ASR.Name, strings.Join(exprs, ", "), s.ASR.Name)
	if _, err := s.sql().Exec(sql); err != nil {
		return err
	}
	if needMark {
		return s.ASR.Unmark(s.sql())
	}
	return nil
}

// rebuildASRPathsFor maintains the ASR after a tuple-method insert using the
// id mapping built during the copy.
func (s *Store) rebuildASRPathsFor(srcElem string, idMap map[int64]int64, dstParentID int64) error {
	level := s.ASR.LevelOf[srcElem]
	var prefix []relational.Value
	if level > 0 {
		parentElem := s.M.Table(srcElem).Parent
		chain, err := s.chainIDs(parentElem, dstParentID)
		if err != nil {
			return err
		}
		prefix = chain
	}
	// Source paths: every ASR row whose level-id is an old source id (no
	// marks are set in the tuple method; gather paths directly).
	rows, err := s.sql().Query(fmt.Sprintf("SELECT * FROM %s", s.ASR.Name))
	if err != nil {
		return err
	}
	var newPaths [][]relational.Value
	for _, r := range rows.Data {
		idv, ok := r[level].Int()
		if !ok {
			continue
		}
		if _, copied := idMap[idv]; !copied {
			continue
		}
		np := make([]relational.Value, s.ASR.Depth)
		copy(np, prefix)
		for i := level; i < s.ASR.Depth; i++ {
			if old, ok := r[i].Int(); ok {
				if nid, ok := idMap[old]; ok {
					np[i] = relational.Int(nid)
				}
			}
		}
		newPaths = append(newPaths, np)
	}
	return s.ASR.InsertPaths(s.sql(), newPaths)
}

// InsertInlined performs a §6.2 "simple" (flat) insertion: the new element
// is completely inlined, so the operation is a single SQL UPDATE. Per the
// paper, a warning query first verifies that the target columns are NULL in
// every tuple being updated (the element may occur at most once).
func (s *Store) InsertInlined(tableElem string, path []string, text string, where string) (int, error) {
	c := s.M.FindColumn(tableElem, path, "")
	if c == nil {
		return 0, fmt.Errorf("engine: no inlined text column at %s/%s", tableElem, strings.Join(path, "/"))
	}
	tm := s.M.Table(tableElem)
	cond := c.Name + " IS NOT NULL"
	if where != "" {
		cond = "(" + where + ") AND " + cond
	}
	rows, err := s.sql().Query(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", tm.Name, cond))
	if err != nil {
		return 0, err
	}
	if rows.Data[0][0].MustInt() > 0 {
		return 0, fmt.Errorf("engine: insert over existing %s content (occurs at most once in the DTD)", strings.Join(path, "/"))
	}
	sql := fmt.Sprintf("UPDATE %s SET %s = ?", tm.Name, c.Name)
	if where != "" {
		sql += " WHERE " + where
	}
	upd, err := s.DB.Prepare(sql)
	if err != nil {
		return 0, err
	}
	return s.sql().ExecPrepared(upd, relational.Text(text))
}

// InsertAttribute inserts an attribute value into matching tuples, failing
// if any tuple already has the attribute (§3.2).
func (s *Store) InsertAttribute(tableElem string, path []string, attr, value, where string) (int, error) {
	c := s.M.FindColumn(tableElem, path, attr)
	if c == nil {
		return 0, fmt.Errorf("engine: no column for attribute %q at %s/%s", attr, tableElem, strings.Join(path, "/"))
	}
	tm := s.M.Table(tableElem)
	cond := c.Name + " IS NOT NULL"
	if where != "" {
		cond = "(" + where + ") AND " + cond
	}
	rows, err := s.sql().Query(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s", tm.Name, cond))
	if err != nil {
		return 0, err
	}
	if rows.Data[0][0].MustInt() > 0 {
		return 0, fmt.Errorf("engine: attribute %q already present on a target tuple", attr)
	}
	sql := fmt.Sprintf("UPDATE %s SET %s = ?", tm.Name, c.Name)
	if where != "" {
		sql += " WHERE " + where
	}
	upd, err := s.DB.Prepare(sql)
	if err != nil {
		return 0, err
	}
	return s.sql().ExecPrepared(upd, relational.Text(value))
}
