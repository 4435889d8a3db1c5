package engine

import (
	"fmt"
	"strings"

	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/xpath"
)

// pathTarget is the relational resolution of a path expression: the table
// element it lands on (with an accumulated SQL condition over that table),
// or an inlined item within a table.
type pathTarget struct {
	// Elem is the table element the path reaches.
	Elem string
	// Where is the SQL condition over Elem's table selecting the matched
	// tuples (unqualified column names), "" when unconstrained.
	Where string
	// Inlined is the remaining path inside the tuple ("" when the path
	// ends exactly at the table element). Attr is set when the final step
	// was an attribute step.
	Inlined []string
	Attr    string
}

func andWhere(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return "(" + a + ") AND (" + b + ")"
	}
}

// translateAbsPath resolves an absolute (or document()-prefixed) path to a
// relational target. Supported steps: child steps from the root, one leading
// descendant step (resolved to the unique table element of that name),
// attribute steps, and predicates translatable by translatePred.
func (s *Store) translateAbsPath(p *xpath.Path) (*pathTarget, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("engine: empty path")
	}
	var cur string
	var where string
	start := 0
	switch p.Steps[0].Kind {
	case xpath.ChildStep:
		if p.Steps[0].Name != s.M.Root && p.Steps[0].Name != "*" {
			return nil, fmt.Errorf("engine: path must start at root element %q, got %q", s.M.Root, p.Steps[0].Name)
		}
		cur = s.M.Root
		w, err := s.translatePreds(cur, nil, p.Steps[0].Preds)
		if err != nil {
			return nil, err
		}
		where = w
		start = 1
	case xpath.DescendantStep:
		// //Order: the named element must map to exactly one table.
		name := p.Steps[0].Name
		if s.M.Table(name) == nil {
			return nil, fmt.Errorf("engine: //%s does not name a table element", name)
		}
		cur = name
		w, err := s.translatePreds(cur, nil, p.Steps[0].Preds)
		if err != nil {
			return nil, err
		}
		where = w
		start = 1
	default:
		return nil, fmt.Errorf("engine: unsupported leading step %v", p.Steps[0].Kind)
	}
	return s.translateSteps(cur, where, p.Steps[start:])
}

// translateSteps walks child/attribute steps from a table element,
// descending through child tables and into the inlined region.
func (s *Store) translateSteps(cur, where string, steps []*xpath.Step) (*pathTarget, error) {
	var inlined []string
	for si, st := range steps {
		switch st.Kind {
		case xpath.ChildStep:
			if len(inlined) == 0 && s.isChildTable(cur, st.Name) {
				// Descend to the child table: the accumulated parent
				// condition becomes a parentId IN (…) condition.
				parentCond := ""
				if where != "" {
					ptm := s.M.Table(cur)
					parentCond = fmt.Sprintf("parentId IN (SELECT id FROM %s WHERE %s)", ptm.Name, where)
				}
				cur = st.Name
				where = parentCond
				w, err := s.translatePreds(cur, nil, st.Preds)
				if err != nil {
					return nil, err
				}
				where = andWhere(where, w)
				continue
			}
			// Inlined step.
			inlined = append(inlined, st.Name)
			if len(st.Preds) > 0 {
				w, err := s.translatePreds(cur, inlined, st.Preds)
				if err != nil {
					return nil, err
				}
				where = andWhere(where, w)
			}
		case xpath.AttrStep:
			if si != len(steps)-1 {
				return nil, fmt.Errorf("engine: attribute step must be last")
			}
			return &pathTarget{Elem: cur, Where: where, Inlined: inlined, Attr: st.Name}, nil
		case xpath.DescendantStep:
			return nil, fmt.Errorf("engine: descendant step is only supported as the leading step")
		default:
			return nil, fmt.Errorf("engine: unsupported step kind %v in relational translation", st.Kind)
		}
	}
	return &pathTarget{Elem: cur, Where: where, Inlined: inlined}, nil
}

func (s *Store) isChildTable(parentElem, name string) bool {
	tm := s.M.Table(parentElem)
	if tm == nil {
		return false
	}
	for _, c := range tm.ChildTables {
		if c == name {
			return true
		}
	}
	return false
}

// translatePreds converts step predicates into a SQL condition over the
// table element's tuples, at the given inlined offset.
func (s *Store) translatePreds(elem string, inlined []string, preds []xpath.Expr) (string, error) {
	var conds []string
	for _, p := range preds {
		c, err := s.translatePred(elem, inlined, p)
		if err != nil {
			return "", err
		}
		conds = append(conds, c)
	}
	return strings.Join(conds, " AND "), nil
}

func (s *Store) translatePred(elem string, inlined []string, e xpath.Expr) (string, error) {
	switch x := e.(type) {
	case *xpath.BinaryExpr:
		switch x.Op {
		case "and", "or":
			l, err := s.translatePred(elem, inlined, x.L)
			if err != nil {
				return "", err
			}
			r, err := s.translatePred(elem, inlined, x.R)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("(%s %s %s)", l, strings.ToUpper(x.Op), r), nil
		case "=", "!=", "<", "<=", ">", ">=":
			pe, ok := x.L.(*xpath.PathExpr)
			if !ok {
				return "", fmt.Errorf("engine: comparison left side must be a path")
			}
			lit, err := literalSQL(x.R)
			if err != nil {
				return "", err
			}
			return s.pathCondition(elem, inlined, pe.Path, x.Op, lit)
		default:
			return "", fmt.Errorf("engine: unsupported predicate operator %q", x.Op)
		}
	case *xpath.PathExpr:
		// Existence predicate.
		return s.pathCondition(elem, inlined, x.Path, "", "")
	case *xpath.IndexCall:
		return "", fmt.Errorf("engine: index() is not supported in relational translation (order is not stored; see Options.OrderColumn)")
	default:
		return "", fmt.Errorf("engine: unsupported predicate %T", e)
	}
}

func literalSQL(e xpath.Expr) (string, error) {
	switch v := e.(type) {
	case *xpath.StringLit:
		return relational.FormatValue(relational.Text(v.Value)), nil
	case *xpath.NumberLit:
		return fmt.Sprint(v.Value), nil
	default:
		return "", fmt.Errorf("engine: comparison right side must be a literal")
	}
}

// pathCondition builds the SQL condition for `relpath op literal` (or bare
// existence when op == "") evaluated at (elem, inlined). Every comparison a
// statement makes — from a path predicate or from WHERE — is translated
// here, so this is the one place that derives value indexes: an equality
// with a literal (`[@key="x"]`, `$c/name = "x"`) gets a hash index on the
// compared column the first time it is translated (valueIndex). The
// predicate syntax is the selectivity signal; no column list is configured.
func (s *Store) pathCondition(elem string, inlined []string, rel *xpath.Path, op, lit string) (string, error) {
	// Walk the relative path: attribute step or element steps, which may
	// stay inlined or cross into a child table.
	curInlined := append([]string(nil), inlined...)
	curElem := elem
	crossed := false
	for si, st := range rel.Steps {
		switch st.Kind {
		case xpath.AttrStep:
			if si != len(rel.Steps)-1 {
				return "", fmt.Errorf("engine: attribute step must be last in predicate path")
			}
			c := s.M.FindColumn(curElem, curInlined, st.Name)
			if c == nil {
				return "", fmt.Errorf("engine: no column for @%s at %s/%s", st.Name, curElem, strings.Join(curInlined, "/"))
			}
			return s.compareColumn(curElem, c.Name, op, lit, crossed), nil
		case xpath.ChildStep:
			if len(st.Preds) > 0 {
				return "", fmt.Errorf("engine: nested predicates in predicate paths are not supported")
			}
			if !crossed && len(curInlined) == 0 && s.isChildTable(curElem, st.Name) {
				crossed = true
				curElem = st.Name
				continue
			}
			if crossed && s.isChildTable(curElem, st.Name) && len(curInlined) == 0 {
				return "", fmt.Errorf("engine: predicate paths may cross at most one table boundary")
			}
			curInlined = append(curInlined, st.Name)
		default:
			return "", fmt.Errorf("engine: unsupported step in predicate path")
		}
	}
	// Path ends on an element: compare its text column (or existence).
	c := s.M.FindColumn(curElem, curInlined, "")
	if c == nil {
		// Perhaps the element has no text but a flag (existence check).
		if op == "" {
			if f := s.M.FlagColumnFor(curElem, curInlined); f != nil {
				return s.wrapChild(curElem, f.Name+" IS NOT NULL", crossed), nil
			}
			// A child-table existence check.
			if crossed || s.isChildTable(curElem, "") {
				return "", fmt.Errorf("engine: unsupported existence predicate at %s/%s", curElem, strings.Join(curInlined, "/"))
			}
		}
		return "", fmt.Errorf("engine: no text column at %s/%s", curElem, strings.Join(curInlined, "/"))
	}
	return s.compareColumn(curElem, c.Name, op, lit, crossed), nil
}

// compareColumn renders `col op lit` (existence when op == "") on condElem's
// table, wrapped for the outer table when the path crossed into a child
// table. An equality first derives the column's value index.
func (s *Store) compareColumn(condElem, col, op, lit string, crossed bool) string {
	if op == "" {
		return s.wrapChild(condElem, col+" IS NOT NULL", crossed)
	}
	if op == "=" {
		s.valueIndex(s.M.Table(condElem).Name, col)
	}
	return s.wrapChild(condElem, fmt.Sprintf("%s %s %s", col, op, lit), crossed)
}

// valueIndex gives table.col a hash index the first time a translated
// equality compares it with a literal, so the statement's binding SELECT
// and its `WHERE id IN (…)` writes probe instead of scanning. The index is
// ordinary DDL issued in its own autocommit statement: logged, carried by
// checkpoints, and never rolled back with the update that asked for it.
// Readers translate concurrently with the updater; the first translation
// to claim the column in s.indexed issues the statement — through s.DB,
// never the updater's session — so a column is indexed exactly once per
// Store. Translations racing it do not wait: their statements plan against
// whatever indexes exist when they run, which changes cost, not answers.
// After a reopen the first claim re-issues the statement, which the DB
// skips as a no-op. A failed CREATE INDEX drops the claim so a later
// translation retries; the comparison itself still runs, by scan, and a DB
// too broken to index reports that on the statement itself.
func (s *Store) valueIndex(table, col string) {
	key := strings.ToLower(table + "." + col)
	if _, claimed := s.indexed.LoadOrStore(key, true); claimed {
		return
	}
	if _, err := s.DB.Exec(fmt.Sprintf("CREATE INDEX vidx_%s_%s ON %s (%s)", table, col, table, col)); err != nil {
		s.indexed.Delete(key)
	}
}

// wrapChild rewrites a condition evaluated on a child table into a condition
// on the outer table: id IN (SELECT parentId FROM Child WHERE …).
func (s *Store) wrapChild(condElem, cond string, crossed bool) string {
	if !crossed {
		return cond
	}
	return fmt.Sprintf("id IN (SELECT parentId FROM %s WHERE %s)", s.M.Table(condElem).Name, cond)
}

// columnFor resolves a pathTarget to its column map when it names an inlined
// item.
func (s *Store) columnFor(t *pathTarget) *shred.ColumnMap {
	if t.Attr != "" {
		return s.M.FindColumn(t.Elem, t.Inlined, t.Attr)
	}
	if len(t.Inlined) > 0 {
		return s.M.FindColumn(t.Elem, t.Inlined, "")
	}
	return nil
}
