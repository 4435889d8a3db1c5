package engine

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// ExecString parses and executes an XQuery update statement against the
// store, translating it to SQL. It returns the number of target tuples the
// update applied to.
func (s *Store) ExecString(q string) (int, error) {
	stmt, err := xquery.Parse(q)
	if err != nil {
		return 0, err
	}
	return s.Exec(stmt)
}

// Exec executes a parsed update statement using the paper's §6.3 algorithm:
// first all source and target bindings — including every sub-operation's —
// are computed over the unmodified database; then the sub-operations execute
// sequentially over the materialized bindings. This is what makes Example 8
// (an outer operation invalidating a nested selection) come out right.
func (s *Store) Exec(stmt *xquery.Statement) (int, error) {
	if stmt.IsQuery() {
		return 0, fmt.Errorf("engine: Exec handles updates; use QuerySubtrees for queries")
	}
	env := newSQLEnv(s)
	for _, fb := range stmt.For {
		env.defs[fb.Var] = fb.Path
	}
	if len(stmt.Let) > 0 {
		return 0, fmt.Errorf("engine: LET is not supported in relational translation")
	}
	for _, w := range stmt.Where {
		if err := env.applyWhere(w); err != nil {
			return 0, err
		}
	}

	target, err := env.resolve(stmt.Update.Binding)
	if err != nil {
		return 0, err
	}
	if len(target.Inlined) > 0 || target.Attr != "" {
		return 0, fmt.Errorf("engine: UPDATE target $%s must bind a table element", stmt.Update.Binding)
	}
	targetIDs, err := s.tupleIDs(target)
	if err != nil {
		return 0, err
	}

	// Binding phase for all sub-operations.
	plan, err := s.planOps(env, stmt.Update, target, targetIDs)
	if err != nil {
		return 0, err
	}
	// Execution phase — §6.3 plus atomicity: the sub-operations run inside
	// one transaction, so a failure discovered while executing (a unique
	// violation on the nth tuple, unsupported content found mid-plan)
	// rolls back every earlier sub-operation instead of stranding its
	// effects. Readers under the DB's shared lock never observe the
	// intermediate states.
	if err := s.atomically(func() error {
		for _, op := range plan {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	return len(targetIDs), nil
}

// QuerySubtrees runs a FOR…RETURN query whose return variable binds a table
// element, via Sorted Outer Union, and returns the reconstructed subtrees.
func (s *Store) QuerySubtrees(stmt *xquery.Statement) ([]*xmltree.Element, error) {
	if !stmt.IsQuery() {
		return nil, fmt.Errorf("engine: QuerySubtrees requires a RETURN statement")
	}
	env := newSQLEnv(s)
	for _, fb := range stmt.For {
		env.defs[fb.Var] = fb.Path
	}
	for _, w := range stmt.Where {
		if err := env.applyWhere(w); err != nil {
			return nil, err
		}
	}
	if stmt.Return.Var == "" || (stmt.Return.Path != nil && len(stmt.Return.Path.Steps) > 0) {
		return nil, fmt.Errorf("engine: RETURN must be a bare variable")
	}
	target, err := env.resolve(stmt.Return.Var)
	if err != nil {
		return nil, err
	}
	if len(target.Inlined) > 0 || target.Attr != "" {
		return nil, fmt.Errorf("engine: RETURN variable must bind a table element")
	}
	// The condition's bare column names resolve against the outer union's
	// base query, whose only source is the target table.
	plan, err := s.plan(target.Elem)
	if err != nil {
		return nil, err
	}
	subs, err := plan.Query(s.DB, target.Where)
	if err != nil {
		return nil, err
	}
	out := make([]*xmltree.Element, len(subs))
	for i, st := range subs {
		out[i] = st.Root
	}
	return out, nil
}

// sqlEnv resolves statement variables to relational path targets.
type sqlEnv struct {
	s     *Store
	defs  map[string]xquery.VarPath
	extra map[string][]string // var → additional SQL conditions from WHERE
}

func newSQLEnv(s *Store) *sqlEnv {
	return &sqlEnv{s: s, defs: make(map[string]xquery.VarPath), extra: make(map[string][]string)}
}

func (e *sqlEnv) resolve(v string) (*pathTarget, error) {
	return e.resolveGuarded(v, make(map[string]bool))
}

func (e *sqlEnv) resolveGuarded(v string, visiting map[string]bool) (*pathTarget, error) {
	if visiting[v] {
		return nil, fmt.Errorf("engine: circular variable reference $%s", v)
	}
	visiting[v] = true
	defer delete(visiting, v)
	def, ok := e.defs[v]
	if !ok {
		return nil, fmt.Errorf("engine: unbound variable $%s", v)
	}
	var t *pathTarget
	var err error
	if def.Var == "" {
		t, err = e.s.translateAbsPath(def.Path)
	} else {
		base, berr := e.resolveGuarded(def.Var, visiting)
		if berr != nil {
			return nil, berr
		}
		if len(base.Inlined) > 0 || base.Attr != "" {
			return nil, fmt.Errorf("engine: $%s is not an element binding", def.Var)
		}
		if def.Path == nil {
			cp := *base
			t = &cp
		} else {
			t, err = e.s.translateSteps(base.Elem, base.Where, def.Path.Steps)
		}
	}
	if err != nil {
		return nil, err
	}
	for _, c := range e.extra[v] {
		t.Where = andWhere(t.Where, c)
	}
	return t, nil
}

// applyWhere turns a WHERE predicate into a SQL condition attached to the
// variable it references.
func (e *sqlEnv) applyWhere(w xquery.WhereExpr) error {
	switch x := w.(type) {
	case xquery.BoolOp:
		if x.Op != "and" {
			return fmt.Errorf("engine: WHERE supports conjunctions only in relational translation")
		}
		if err := e.applyWhere(x.L); err != nil {
			return err
		}
		return e.applyWhere(x.R)
	case xquery.Comparison:
		switch l := x.L.(type) {
		case xquery.IndexVal:
			if !e.s.Opt.OrderColumn {
				return fmt.Errorf("engine: index() requires Options.OrderColumn (order-preserving storage, §8)")
			}
			n, ok := x.R.(xquery.NumberVal)
			if !ok {
				return fmt.Errorf("engine: index() comparisons take a number")
			}
			e.extra[l.Var] = append(e.extra[l.Var], fmt.Sprintf("pos %s %d", x.Op, n.Value))
			return nil
		case xquery.PathVal:
			if l.Path.Var == "" {
				return fmt.Errorf("engine: WHERE paths must be variable-rooted")
			}
			t, err := e.resolve(l.Path.Var)
			if err != nil {
				return err
			}
			lit, err := whereLiteral(x.R)
			if err != nil {
				return err
			}
			var rel *xpath.Path
			if l.Path.Path != nil {
				rel = l.Path.Path
			} else {
				rel = &xpath.Path{}
			}
			cond, err := e.s.pathCondition(t.Elem, t.Inlined, rel, x.Op, lit)
			if err != nil {
				return err
			}
			e.extra[l.Path.Var] = append(e.extra[l.Path.Var], cond)
			return nil
		default:
			return fmt.Errorf("engine: unsupported WHERE left side %T", x.L)
		}
	case xquery.ExistsExpr:
		if x.Path.Var == "" {
			return fmt.Errorf("engine: WHERE paths must be variable-rooted")
		}
		t, err := e.resolve(x.Path.Var)
		if err != nil {
			return err
		}
		cond, err := e.s.pathCondition(t.Elem, t.Inlined, x.Path.Path, "", "")
		if err != nil {
			return err
		}
		e.extra[x.Path.Var] = append(e.extra[x.Path.Var], cond)
		return nil
	default:
		return fmt.Errorf("engine: unsupported WHERE predicate %T", w)
	}
}

func whereLiteral(v xquery.ValExpr) (string, error) {
	switch x := v.(type) {
	case xquery.StringVal:
		return relational.FormatValue(relational.Text(x.Value)), nil
	case xquery.NumberVal:
		return fmt.Sprint(x.Value), nil
	default:
		return "", fmt.Errorf("engine: WHERE comparison right side must be a literal")
	}
}

// tupleIDs materializes the ids selected by a target.
func (s *Store) tupleIDs(t *pathTarget) ([]int64, error) {
	tm := s.M.Table(t.Elem)
	sql := fmt.Sprintf("SELECT id FROM %s", tm.Name)
	if t.Where != "" {
		sql += " WHERE " + t.Where
	}
	rows, err := s.sql().Query(sql)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(rows.Data))
	for _, r := range rows.Data {
		out = append(out, r[0].MustInt())
	}
	return out, nil
}

func idListSQL(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return strings.Join(parts, ", ")
}

// plannedOp is a fully bound sub-operation ready to execute.
type plannedOp func() error

// planOps binds an UPDATE clause's sub-operations against the already
// materialized target ids, recursively pre-binding nested updates.
func (s *Store) planOps(env *sqlEnv, up *xquery.UpdateOp, target *pathTarget, targetIDs []int64) ([]plannedOp, error) {
	if len(targetIDs) == 0 {
		return nil, nil
	}
	inTargets := fmt.Sprintf("id IN (%s)", idListSQL(targetIDs))
	var plan []plannedOp
	for _, so := range up.Ops {
		switch o := so.(type) {
		case xquery.DeleteOp:
			child, err := env.resolve(o.Child)
			if err != nil {
				return nil, err
			}
			p, err := s.planDelete(target, child, inTargets)
			if err != nil {
				return nil, err
			}
			plan = append(plan, p)
		case xquery.RenameOp:
			child, err := env.resolve(o.Child)
			if err != nil {
				return nil, err
			}
			if len(child.Inlined) == 0 && child.Attr == "" {
				return nil, fmt.Errorf("engine: RENAME of a table element is not supported relationally")
			}
			newName := o.Name
			p := func() error {
				if child.Attr != "" {
					// Attribute rename: move the column value.
					oldCol := s.M.FindColumn(child.Elem, child.Inlined, child.Attr)
					newCol := s.M.FindColumn(child.Elem, child.Inlined, newName)
					if oldCol == nil || newCol == nil {
						return fmt.Errorf("engine: rename requires both %q and %q declared", child.Attr, newName)
					}
					tm := s.M.Table(child.Elem)
					_, err := s.sql().Exec(fmt.Sprintf("UPDATE %s SET %s = %s, %s = NULL WHERE %s",
						tm.Name, newCol.Name, oldCol.Name, oldCol.Name, andWhere(child.Where, inTargets)))
					return err
				}
				_, err := s.RenameInlined(child.Elem, child.Inlined, newName, andWhere(child.Where, inTargets))
				return err
			}
			plan = append(plan, p)
		case xquery.InsertOp:
			p, err := s.planInsert(env, o, target, targetIDs, inTargets)
			if err != nil {
				return nil, err
			}
			plan = append(plan, p)
		case xquery.ReplaceOp:
			child, err := env.resolve(o.Child)
			if err != nil {
				return nil, err
			}
			p, err := s.planReplace(o, target, child, inTargets)
			if err != nil {
				return nil, err
			}
			plan = append(plan, p)
		case xquery.NestedUpdate:
			// Bind the nested scope now, over the unmodified database.
			nestedEnv := newSQLEnv(s)
			for k, v := range env.defs {
				nestedEnv.defs[k] = v
			}
			for k, v := range env.extra {
				nestedEnv.extra[k] = v
			}
			for _, fb := range o.For {
				nestedEnv.defs[fb.Var] = fb.Path
			}
			for _, w := range o.Where {
				if err := nestedEnv.applyWhere(w); err != nil {
					return nil, err
				}
			}
			nt, err := nestedEnv.resolve(o.Update.Binding)
			if err != nil {
				return nil, err
			}
			if len(nt.Inlined) > 0 || nt.Attr != "" {
				return nil, fmt.Errorf("engine: UPDATE target $%s must bind a table element", o.Update.Binding)
			}
			// Constrain nested targets to descendants of the outer targets:
			// the chain is already encoded in nt.Where through variable
			// composition; materialize ids now.
			ntIDs, err := s.tupleIDs(nt)
			if err != nil {
				return nil, err
			}
			nestedPlan, err := s.planOps(nestedEnv, o.Update, nt, ntIDs)
			if err != nil {
				return nil, err
			}
			plan = append(plan, nestedPlan...)
		default:
			return nil, fmt.Errorf("engine: unsupported sub-operation %T", so)
		}
	}
	return plan, nil
}

func (s *Store) planDelete(target, child *pathTarget, inTargets string) (plannedOp, error) {
	switch {
	case child.Attr != "":
		where := andWhere(child.Where, constrainTo(s, target, child, inTargets))
		return func() error {
			_, err := s.DeleteAttribute(child.Elem, child.Inlined, child.Attr, where)
			return err
		}, nil
	case len(child.Inlined) > 0:
		where := andWhere(child.Where, constrainTo(s, target, child, inTargets))
		return func() error {
			_, err := s.DeleteInlined(child.Elem, child.Inlined, where)
			return err
		}, nil
	default:
		// Complex delete: pre-bind the child subtree roots now.
		ids, err := s.tupleIDs(&pathTarget{Elem: child.Elem, Where: andWhere(child.Where, constrainTo(s, target, child, inTargets))})
		if err != nil {
			return nil, err
		}
		return func() error {
			if len(ids) == 0 {
				return nil
			}
			_, err := s.DeleteSubtrees(child.Elem, fmt.Sprintf("id IN (%s)", idListSQL(ids)))
			return err
		}, nil
	}
}

// constrainTo restricts a child target's condition to the materialized outer
// target tuples. When the child resolves to the same table element as the
// target, the id-list applies directly; when it is a child table, the
// constraint follows parentId.
func constrainTo(s *Store, target, child *pathTarget, inTargets string) string {
	if child.Elem == target.Elem {
		return inTargets
	}
	// Find the linking chain child.Elem → target.Elem.
	cond := inTargets
	chain := s.M.ParentChain(child.Elem)
	// Walk upward from child to target, nesting parentId IN (…).
	idx := -1
	for i, e := range chain {
		if e == target.Elem {
			idx = i
			break
		}
	}
	if idx < 0 {
		return inTargets // unrelated; best effort
	}
	for i := len(chain) - 1; i > idx; i-- {
		ptm := s.M.Table(chain[i-1])
		cond = fmt.Sprintf("parentId IN (SELECT id FROM %s WHERE %s)", ptm.Name, cond)
	}
	return cond
}

func (s *Store) planInsert(env *sqlEnv, o xquery.InsertOp, target *pathTarget, targetIDs []int64, inTargets string) (plannedOp, error) {
	switch c := o.Content.(type) {
	case xquery.NewAttributeExpr:
		if o.Position != "" {
			return nil, fmt.Errorf("engine: attributes are unordered; positional insert is invalid")
		}
		return func() error {
			_, err := s.InsertAttribute(target.Elem, nil, c.Name, c.Value, inTargets)
			return err
		}, nil
	case xquery.NewRefExpr:
		// IDREFS columns store the space-separated list; appending a
		// reference is a per-tuple string update.
		col := s.M.FindColumn(target.Elem, nil, c.Name)
		if col == nil {
			return nil, fmt.Errorf("engine: no reference column %q on %s", c.Name, target.Elem)
		}
		tm := s.M.Table(target.Elem)
		ids := append([]int64(nil), targetIDs...)
		// Formatted once at planning time, probed per target id.
		sel := fmt.Sprintf("SELECT %s FROM %s WHERE id = ?", col.Name, tm.Name)
		upd := fmt.Sprintf("UPDATE %s SET %s = ? WHERE id = ?", tm.Name, col.Name)
		return func() error {
			for _, id := range ids {
				rows, err := s.sql().Query(sel, relational.Int(id))
				if err != nil {
					return err
				}
				cur := ""
				if len(rows.Data) == 1 {
					if sv, ok := rows.Data[0][0].Text(); ok {
						cur = sv
					}
				}
				nv := c.ID
				if cur != "" {
					nv = cur + " " + c.ID
				}
				if _, err := s.sql().Exec(upd, relational.Text(nv), relational.Int(id)); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case xquery.ElementLiteral:
		doc, err := xmltree.ParseWith(c.XML, xmltree.ParseOptions{TrimText: true, DTD: s.M.DTD})
		if err != nil {
			return nil, fmt.Errorf("engine: element literal: %w", err)
		}
		content := doc.Root
		if s.M.Table(content.Name) == nil {
			// Simple (inlined) insertion.
			if o.Position != "" {
				return nil, fmt.Errorf("engine: inlined content has no stored order")
			}
			text := content.TextContent()
			return func() error {
				_, err := s.InsertInlined(target.Elem, []string{content.Name}, text, inTargets)
				return err
			}, nil
		}
		// Complex insertion of a new subtree under every target tuple.
		if o.Position == "" {
			ids := append([]int64(nil), targetIDs...)
			return func() error {
				for _, id := range ids {
					pos := 0
					if s.Opt.OrderColumn {
						p, err := s.nextPos(target.Elem, id)
						if err != nil {
							return err
						}
						pos = p
					}
					if _, err := s.InsertContentAt(id, content, pos); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}
		// Positional insertion: requires order-preserving storage; the ref
		// variable must bind tuples of a child table. Bind ref positions
		// now.
		if !s.Opt.OrderColumn {
			return nil, fmt.Errorf("engine: INSERT BEFORE/AFTER requires Options.OrderColumn (order-preserving storage, §8)")
		}
		ref, err := env.resolve(o.Ref)
		if err != nil {
			return nil, err
		}
		if len(ref.Inlined) > 0 || ref.Attr != "" {
			return nil, fmt.Errorf("engine: positional reference must bind a table element")
		}
		rtm := s.M.Table(ref.Elem)
		sql := fmt.Sprintf("SELECT parentId, pos FROM %s", rtm.Name)
		w := andWhere(ref.Where, constrainTo(s, target, ref, inTargets))
		if w != "" {
			sql += " WHERE " + w
		}
		rows, err := s.sql().Query(sql)
		if err != nil {
			return nil, err
		}
		type slot struct {
			parent int64
			pos    int64
		}
		var slots []slot
		for _, r := range rows.Data {
			pid, _ := r[0].Int()
			pos, _ := r[1].Int()
			if o.Position == "after" {
				pos++
			}
			slots = append(slots, slot{pid, pos})
		}
		return func() error {
			for _, sl := range slots {
				// Push existing positions forward to make room (§8).
				if _, err := s.sql().Exec(fmt.Sprintf("UPDATE %s SET pos = pos + 1 WHERE parentId = %d AND pos >= %d",
					rtm.Name, sl.parent, sl.pos)); err != nil {
					return err
				}
				if _, err := s.InsertContentAt(sl.parent, content, int(sl.pos)); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case xquery.StringContent, xquery.VarContent:
		return nil, fmt.Errorf("engine: %T content requires the DOM engine (reference-list order is not stored relationally)", c)
	default:
		return nil, fmt.Errorf("engine: unsupported content %T", c)
	}
}

// nextPos returns one past the maximum child position under a parent tuple.
func (s *Store) nextPos(parentElem string, parentID int64) (int, error) {
	max := 0
	for _, ce := range s.M.Table(parentElem).ChildTables {
		ctm := s.M.Table(ce)
		rows, err := s.sql().Query(fmt.Sprintf("SELECT MAX(pos) FROM %s WHERE parentId = %d", ctm.Name, parentID))
		if err != nil {
			return 0, err
		}
		if v, ok := rows.Data[0][0].Int(); ok && int(v) >= max {
			max = int(v) + 1
		}
	}
	return max, nil
}

func (s *Store) planReplace(o xquery.ReplaceOp, target, child *pathTarget, inTargets string) (plannedOp, error) {
	lit, ok := o.Content.(xquery.ElementLiteral)
	if !ok {
		if na, ok := o.Content.(xquery.NewAttributeExpr); ok {
			// Attribute (or reference) replacement: a column overwrite.
			col := s.columnFor(child)
			if col == nil {
				col = s.M.FindColumn(child.Elem, child.Inlined, na.Name)
			}
			if col == nil {
				return nil, fmt.Errorf("engine: no column for replaced attribute")
			}
			where := andWhere(child.Where, constrainTo(s, target, child, inTargets))
			tm := s.M.Table(child.Elem)
			return func() error {
				sql := fmt.Sprintf("UPDATE %s SET %s = %s", tm.Name, col.Name, relational.FormatValue(relational.Text(na.Value)))
				if where != "" {
					sql += " WHERE " + where
				}
				_, err := s.sql().Exec(sql)
				return err
			}, nil
		}
		return nil, fmt.Errorf("engine: REPLACE supports element literals and new_attribute")
	}
	doc, err := xmltree.ParseWith(lit.XML, xmltree.ParseOptions{TrimText: true, DTD: s.M.DTD})
	if err != nil {
		return nil, fmt.Errorf("engine: element literal: %w", err)
	}
	content := doc.Root
	switch {
	case child.Attr != "":
		return nil, fmt.Errorf("engine: cannot replace an attribute with an element")
	case len(child.Inlined) > 0:
		// Inlined replace: overwrite the text column (rename via literal tag
		// change is not inferred — the column set must match).
		col := s.M.FindColumn(child.Elem, child.Inlined, "")
		newCol := col
		if content.Name != child.Inlined[len(child.Inlined)-1] {
			alt := append(append([]string(nil), child.Inlined[:len(child.Inlined)-1]...), content.Name)
			newCol = s.M.FindColumn(child.Elem, alt, "")
		}
		if col == nil || newCol == nil {
			return nil, fmt.Errorf("engine: inlined replace requires declared columns for both tags")
		}
		where := andWhere(child.Where, constrainTo(s, target, child, inTargets))
		tm := s.M.Table(child.Elem)
		text := content.TextContent()
		return func() error {
			sets := fmt.Sprintf("%s = %s", newCol.Name, relational.FormatValue(relational.Text(text)))
			if newCol != col {
				sets += fmt.Sprintf(", %s = NULL", col.Name)
			}
			sql := fmt.Sprintf("UPDATE %s SET %s", tm.Name, sets)
			if where != "" {
				sql += " WHERE " + where
			}
			_, err := s.sql().Exec(sql)
			return err
		}, nil
	default:
		// Complex replace: pre-bind child subtree roots, then insert+delete.
		where := andWhere(child.Where, constrainTo(s, target, child, inTargets))
		ids, err := s.tupleIDs(&pathTarget{Elem: child.Elem, Where: where})
		if err != nil {
			return nil, err
		}
		return func() error {
			if len(ids) == 0 {
				return nil
			}
			_, err := s.ReplaceSubtrees(child.Elem, fmt.Sprintf("id IN (%s)", idListSQL(ids)), content)
			return err
		}, nil
	}
}
