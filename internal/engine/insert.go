package engine

import (
	"fmt"
	"strings"

	"repro/internal/asr"
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
	var tuples []asr.Tuple
	// One `?` INSERT text per branch: the per-tuple loop binds values
	// instead of re-formatting SQL for every tuple, and the DB's plan cache
	// parses each text once.
	inserts := make([]string, len(plan.Branches))
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
		if inserts[bi] == "" {
			cols := []string{"id", "parentId"}
			marks := []string{"?", "?"}
			for _, c := range tm.Columns {
				cols = append(cols, c.Name)
				marks = append(marks, "?")
			}
			inserts[bi] = fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
				tm.Name, strings.Join(cols, ", "), strings.Join(marks, ", "))
		}
		args := append(make([]relational.Value, 0, b.NData+2), relational.Int(newID), parent)
		args = append(args, b.Data(row)...)
		if _, err := s.sql().Exec(inserts[bi], args...); err != nil {
			return roots, err
		}
		if s.ASR != nil {
			tuples = append(tuples, asr.Tuple{Elem: b.Elem, ID: newID, Parent: parent.MustInt()})
		}
	}
	if s.ASR != nil {
		if err := s.ASR.InsertTuples(s.sql(), srcElem, dstParentID, tuples); err != nil {
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
	// The staged roots, read before the remap: their ids select the ASR
	// paths to copy.
	rootRows, err := s.sql().Query(fmt.Sprintf("SELECT id FROM %s", temp(srcElem)))
	if err != nil {
		return 0, err
	}
	roots := make([]int64, len(rootRows.Data))
	for i, r := range rootRows.Data {
		roots[i] = r[0].MustInt()
	}
	if first || len(roots) == 0 {
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
	// roots at their new parent. The `?` texts keep the remaps on the
	// one-parse path like the tuple-insert loops.
	for i, elem := range subtree {
		remap := fmt.Sprintf("UPDATE %s SET id = id + ?, parentId = parentId + ?", temp(elem))
		if _, err := s.sql().Exec(remap, relational.Int(offset), relational.Int(offset)); err != nil {
			return 0, err
		}
		if i == 0 {
			if _, err := s.sql().Exec(fmt.Sprintf("UPDATE %s SET parentId = ?", temp(elem)), relational.Int(dstParentID)); err != nil {
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
		if err := s.ASR.CopyPaths(s.sql(), srcElem, roots, offset, dstParentID); err != nil {
			return len(roots), err
		}
	}
	return len(roots), nil
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
	if err := s.ASR.MarkSubtrees(s.sql(), srcElem, srcIDs); err != nil {
		return 0, err
	}

	// Scan the ASR for all subtree ids and compute the remapping offset.
	minID, maxID, ok, err := s.ASR.MarkedRange(s.sql(), srcElem)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, s.ASR.Unmark(s.sql())
	}
	offset := s.NextID() - minID
	s.AllocateIDs(maxID - minID + 1)

	// Replicate each relation's marked tuples with the offset applied.
	for _, elem := range s.M.Descendants(srcElem) {
		etm := s.M.Table(elem)
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
		sql := fmt.Sprintf("INSERT INTO %s (%s) SELECT %s FROM %s WHERE id IN (%s)",
			etm.Name, strings.Join(cols, ", "), strings.Join(exprs, ", "), etm.Name, s.ASR.Marked(elem))
		if _, err := s.sql().Exec(sql); err != nil {
			return 0, err
		}
	}
	// Point the copied roots at the destination parent: one `?` UPDATE
	// probing the id index, instead of minting a fresh IN-list statement
	// shape per root count.
	repoint := fmt.Sprintf("UPDATE %s SET parentId = ? WHERE id = ?", tm.Name)
	for _, id := range srcIDs {
		if _, err := s.sql().Exec(repoint, relational.Int(dstParentID), relational.Int(id+offset)); err != nil {
			return 0, err
		}
	}
	if err := s.ASR.CopyMarkedPaths(s.sql(), srcElem, offset, dstParentID); err != nil {
		return 0, err
	}
	if err := s.ASR.Unmark(s.sql()); err != nil {
		return 0, err
	}
	return len(srcIDs), nil
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
	// A literal, not a `?`: where embeds the target ids, so only the lifted
	// shape is a bounded plan-cache key.
	sql := fmt.Sprintf("UPDATE %s SET %s = %s", tm.Name, c.Name, relational.FormatValue(relational.Text(text)))
	if where != "" {
		sql += " WHERE " + where
	}
	return s.sql().Exec(sql)
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
	// A literal, not a `?`: where embeds the target ids, so only the lifted
	// shape is a bounded plan-cache key.
	sql := fmt.Sprintf("UPDATE %s SET %s = %s", tm.Name, c.Name, relational.FormatValue(relational.Text(value)))
	if where != "" {
		sql += " WHERE " + where
	}
	return s.sql().Exec(sql)
}
