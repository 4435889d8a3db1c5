package engine

import (
	"fmt"
	"strings"

	"repro/internal/shred"
)

// DeleteSubtrees deletes every subtree rooted at tuples of elem matching the
// SQL condition (over elem's table, unqualified column names), using the
// store's configured delete method. It returns the number of root tuples
// deleted.
func (s *Store) DeleteSubtrees(elem string, where string) (int, error) {
	tm := s.M.Table(elem)
	if tm == nil {
		return 0, fmt.Errorf("engine: element %q has no table; use DeleteInlined for simple deletions", elem)
	}
	// Multi-statement strategies (cascades, ASR marking) run atomically: a
	// failure partway leaves neither half-purged orphans nor a stale ASR.
	var n int
	err := s.atomically(func() error {
		var err error
		n, err = s.deleteSubtrees(tm, elem, where)
		return err
	})
	return n, err
}

func (s *Store) deleteSubtrees(tm *shred.TableMap, elem, where string) (int, error) {
	switch s.Opt.Delete {
	case PerTupleTrigger, PerStatementTrigger:
		// One statement; triggers propagate inside the DBMS (§6.1.1).
		sql := fmt.Sprintf("DELETE FROM %s", tm.Name)
		if where != "" {
			sql += " WHERE " + where
		}
		n, err := s.sql().Exec(sql)
		if err != nil {
			return 0, err
		}
		if s.ASR != nil && n > 0 {
			// A store keeping an ASR must maintain it on every delete.
			if err := s.ASR.DeleteOrphans(s.sql(), elem); err != nil {
				return n, err
			}
		}
		return n, nil
	case CascadingDelete:
		return s.cascadingDelete(tm.Element, where)
	case ASRDelete:
		return s.asrDelete(elem, where)
	default:
		return 0, fmt.Errorf("engine: unknown delete method %v", s.Opt.Delete)
	}
}

// cascadingDelete simulates per-statement triggers at the application level
// (§6.1.2): delete the parents, then repeatedly purge orphans from child
// relations, stopping as soon as a delete removes no tuples.
func (s *Store) cascadingDelete(elem, where string) (int, error) {
	tm := s.M.Table(elem)
	sql := fmt.Sprintf("DELETE FROM %s", tm.Name)
	if where != "" {
		sql += " WHERE " + where
	}
	n, err := s.sql().Exec(sql)
	if err != nil {
		return 0, err
	}
	// Breadth-first orphan purge; a level whose delete removes nothing
	// stops its branch (the method works even on recursive schemas, where
	// the loop re-visits the same table until quiescent).
	frontier := []string{elem}
	for len(frontier) > 0 {
		var next []string
		for _, pe := range frontier {
			ptm := s.M.Table(pe)
			for _, ce := range ptm.ChildTables {
				ctm := s.M.Table(ce)
				removed, err := s.sql().Exec(fmt.Sprintf(
					"DELETE FROM %s WHERE parentId NOT IN (SELECT id FROM %s)", ctm.Name, ptm.Name))
				if err != nil {
					return n, err
				}
				if removed > 0 {
					next = append(next, ce)
				}
			}
		}
		frontier = next
	}
	if s.ASR != nil && n > 0 {
		if err := s.ASR.DeleteOrphans(s.sql(), elem); err != nil {
			return n, err
		}
	}
	return n, nil
}

// asrDelete implements §6.1.3: find target ids, mark their ASR paths, delete
// matching tuples per level, then update the ASR.
func (s *Store) asrDelete(elem, where string) (int, error) {
	if s.ASR == nil {
		return 0, fmt.Errorf("engine: ASR delete requires an ASR (set Options.Delete = ASRDelete at Open)")
	}
	tm := s.M.Table(elem)
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
	ids := make([]int64, 0, len(rows.Data))
	for _, r := range rows.Data {
		ids = append(ids, r[0].MustInt())
	}
	if err := s.ASR.MarkSubtrees(s.sql(), elem, ids); err != nil {
		return 0, err
	}
	// Delete the targets and every descendant level: ids come from the
	// marked ASR rows (a single join of the deleted tuples with the ASR
	// yields the child ids below the delete point).
	for _, de := range s.M.Descendants(elem) {
		delSQL := fmt.Sprintf("DELETE FROM %s WHERE id IN (%s)", s.M.Table(de).Name, s.ASR.Marked(de))
		if _, err := s.sql().Exec(delSQL); err != nil {
			return 0, err
		}
	}
	if err := s.ASR.DeleteMarked(s.sql(), elem); err != nil {
		return 0, err
	}
	return len(ids), nil
}

// DeleteInlined performs a §6.1 "simple" deletion: the deleted element is
// inlined with an ancestor, so the delete is a single SQL UPDATE setting the
// element's columns (and those of its inlined descendants) to NULL. The
// where condition selects the owning tuples.
func (s *Store) DeleteInlined(tableElem string, path []string, where string) (int, error) {
	cols := s.M.ColumnsUnder(tableElem, path)
	if len(cols) == 0 {
		return 0, fmt.Errorf("engine: no inlined columns at %s/%s", tableElem, strings.Join(path, "/"))
	}
	tm := s.M.Table(tableElem)
	var sets []string
	for _, c := range cols {
		sets = append(sets, c.Name+" = NULL")
	}
	sql := fmt.Sprintf("UPDATE %s SET %s", tm.Name, strings.Join(sets, ", "))
	if where != "" {
		sql += " WHERE " + where
	}
	return s.sql().Exec(sql)
}

// DeleteAttribute removes an attribute (one column) from matching tuples.
func (s *Store) DeleteAttribute(tableElem string, path []string, attr, where string) (int, error) {
	c := s.M.FindColumn(tableElem, path, attr)
	if c == nil {
		return 0, fmt.Errorf("engine: no column for attribute %q at %s/%s", attr, tableElem, strings.Join(path, "/"))
	}
	tm := s.M.Table(tableElem)
	sql := fmt.Sprintf("UPDATE %s SET %s = NULL", tm.Name, c.Name)
	if where != "" {
		sql += " WHERE " + where
	}
	return s.sql().Exec(sql)
}
