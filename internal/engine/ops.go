package engine

import (
	"fmt"
	"strings"

	"repro/internal/asr"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

// InsertContent inserts a new XML subtree (literal content, not a copy of
// stored data) as a child of the tuple dstParentID. The subtree's root must
// be a table element. It returns the new root tuple's id.
//
// Literal content arrives as one INSERT per tuple: unlike the §6.2 copy
// methods there is no stored source to replicate from.
func (s *Store) InsertContent(dstParentID int64, content *xmltree.Element) (int64, error) {
	return s.InsertContentAt(dstParentID, content, 0)
}

// InsertContentAt inserts literal content with an explicit position (only
// meaningful when Options.OrderColumn is set).
func (s *Store) InsertContentAt(dstParentID int64, content *xmltree.Element, pos int) (int64, error) {
	tm := s.M.Table(content.Name)
	if tm == nil {
		return 0, fmt.Errorf("engine: element <%s> has no table; use InsertInlined", content.Name)
	}
	sh := &shred.Shredder{M: s.M, NextID: s.NextID()}
	ds, err := sh.ShredSubtree(content, dstParentID, pos)
	if err != nil {
		return 0, err
	}
	var rootID int64
	// One INSERT per tuple plus ASR paths: atomic, so a failure on the nth
	// tuple leaves no partial subtree and returns the reserved ids.
	err = s.atomically(func() error {
		rootID = s.NextID()
		s.AllocateIDs(int64(ds.TupleCount()))
		for _, sql := range s.M.InsertSQL(ds) {
			if _, err := s.sql().Exec(sql); err != nil {
				return err
			}
		}
		if s.ASR != nil {
			return s.ASR.InsertTuples(s.sql(), content.Name, dstParentID, newTuples(ds))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return rootID, nil
}

// newTuples lists a shredded dataset's tuples for the ASR's walk writer.
func newTuples(ds *shred.Dataset) []asr.Tuple {
	var out []asr.Tuple
	for elem, rows := range ds.Rows {
		for _, r := range rows {
			pid, _ := r[1].Int()
			out = append(out, asr.Tuple{Elem: elem, ID: r[0].MustInt(), Parent: pid})
		}
	}
	return out
}

// ReplaceSubtrees replaces each subtree rooted at a matching tuple of elem
// with a fresh copy of content, attached to the same parent (§6.3: a replace
// is a deletion followed by an insertion). It returns the number of subtrees
// replaced.
func (s *Store) ReplaceSubtrees(elem, where string, content *xmltree.Element) (int, error) {
	tm := s.M.Table(elem)
	if tm == nil {
		return 0, fmt.Errorf("engine: element %q has no table", elem)
	}
	sql := fmt.Sprintf("SELECT id, parentId FROM %s", tm.Name)
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
	var ids []string
	var parents []int64
	for _, r := range rows.Data {
		ids = append(ids, fmt.Sprint(r[0]))
		pid, _ := r[1].Int()
		parents = append(parents, pid)
	}
	// Insert first (the content may be evaluated against the pre-delete
	// state by the caller), then delete the old subtrees by id — one
	// transaction, so a failed delete does not strand the fresh copies.
	err = s.atomically(func() error {
		for _, pid := range parents {
			if _, err := s.InsertContent(pid, content); err != nil {
				return err
			}
		}
		_, err := s.DeleteSubtrees(elem, fmt.Sprintf("id IN (%s)", strings.Join(ids, ", ")))
		return err
	})
	if err != nil {
		return 0, err
	}
	return len(parents), nil
}

// RenameInlined renames an inlined element or attribute by moving its data
// column(s) to the columns of the new name (§6.3: a rename affects only the
// outermost level, only the top-level table needs updating, and no new ids
// are generated). Both old and new names must be declared in the DTD so that
// their columns exist.
func (s *Store) RenameInlined(tableElem string, oldPath []string, newName, where string) (int, error) {
	if len(oldPath) == 0 {
		return 0, fmt.Errorf("engine: empty rename path")
	}
	newPath := append(append([]string(nil), oldPath[:len(oldPath)-1]...), newName)
	oldCols := s.M.ColumnsUnder(tableElem, oldPath)
	if len(oldCols) == 0 {
		return 0, fmt.Errorf("engine: no columns at %s/%s", tableElem, strings.Join(oldPath, "/"))
	}
	tm := s.M.Table(tableElem)
	var sets []string
	for _, oc := range oldCols {
		// Counterpart path: replace the renamed prefix.
		rel := oc.Path[len(oldPath):]
		target := append(append([]string(nil), newPath...), rel...)
		var nc *shred.ColumnMap
		switch oc.Kind {
		case shred.AttrColumn:
			nc = s.M.FindColumn(tableElem, target, oc.Attr)
		case shred.TextColumn:
			nc = s.M.FindColumn(tableElem, target, "")
		case shred.FlagColumn:
			nc = s.M.FlagColumnFor(tableElem, target)
		}
		if nc == nil {
			return 0, fmt.Errorf("engine: rename target %s/%s has no column for %s (declare it in the DTD)",
				tableElem, strings.Join(target, "/"), oc.Name)
		}
		sets = append(sets, fmt.Sprintf("%s = %s", nc.Name, oc.Name), fmt.Sprintf("%s = NULL", oc.Name))
	}
	sql := fmt.Sprintf("UPDATE %s SET %s", tm.Name, strings.Join(sets, ", "))
	if where != "" {
		sql += " WHERE " + where
	}
	return s.sql().Exec(sql)
}

// Reconstruct returns the store's current content as an XML document.
func (s *Store) Reconstruct() (*xmltree.Document, error) {
	return shred.Reconstruct(s.DB, s.M)
}
