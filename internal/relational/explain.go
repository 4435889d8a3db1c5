package relational

import (
	"fmt"
	"strings"
)

// Explain returns the physical plan the executor would run for a statement,
// as an indented operator tree. Plans come from the same compileSelect /
// chooseAccessPlan the executor uses — including interesting-order
// propagation into CTEs — so what Explain prints is what runs: an elided
// sort shows as MergeAll (or nothing for a single ordered branch), ordered
// access paths show as OrderedScan/OrderedProbe/RangeScan.
func (db *DB) Explain(sql string) (string, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return "", err
	}
	// Explain is a read: it parses a private AST and compiles it through
	// the same (planMu-guarded) machinery the executor uses.
	db.mu.RLock()
	defer db.mu.RUnlock()
	var b strings.Builder
	if err := db.renderStmt(&b, stmt, nil, 0); err != nil {
		return "", err
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

func indentLine(b *strings.Builder, depth int, line string) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(line)
	b.WriteByte('\n')
}

// renderStmt renders a statement's plan tree. With a nil run it is plain
// EXPLAIN; with an ANALYZE run every operator line also carries the actuals
// the run recorded for it (opMetrics.suffix, nil-safe).
func (db *DB) renderStmt(b *strings.Builder, stmt Stmt, an *analyzeRun, depth int) error {
	switch s := stmt.(type) {
	case *SelectStmt:
		return db.renderSelect(b, s, an, depth)
	case *DeleteStmt:
		t := db.tables[strings.ToLower(s.Table)]
		if t == nil {
			return fmt.Errorf("relational: no table %q", s.Table)
		}
		indentLine(b, depth, fmt.Sprintf("Delete %s", t.Name))
		db.renderMatch(b, s.Table, t, s.Where, &s.plan, an, depth+1)
		return nil
	case *UpdateStmt:
		t := db.tables[strings.ToLower(s.Table)]
		if t == nil {
			return fmt.Errorf("relational: no table %q", s.Table)
		}
		sets := make([]string, len(s.Set))
		for i, sc := range s.Set {
			sets[i] = fmt.Sprintf("%s = %s", sc.Col, exprString(sc.Val))
		}
		indentLine(b, depth, fmt.Sprintf("Update %s [%s]", t.Name, strings.Join(sets, ", ")))
		db.renderMatch(b, s.Table, t, s.Where, &s.plan, an, depth+1)
		return nil
	case *InsertStmt:
		if s.Select != nil {
			indentLine(b, depth, fmt.Sprintf("Insert %s", s.Table))
			return db.renderSelect(b, s.Select, an, depth+1)
		}
		indentLine(b, depth, fmt.Sprintf("Insert %s (%d rows of values)", s.Table, len(s.Rows)))
		return nil
	default:
		indentLine(b, depth, fmt.Sprintf("%T", stmt))
		return nil
	}
}

// renderMatch renders the DML row-match access line. The plan comes from
// the statement's compiled slot — the same matchPlanFor execution uses — so
// the rendered access path is the one that runs.
func (db *DB) renderMatch(b *strings.Builder, name string, t *Table, where Expr, slot **levelPlan, an *analyzeRun, depth int) {
	lp := db.matchPlanFor(slot, name, t, where)
	src := &source{name: name, table: t}
	ap := chooseAccessPlan(lp, src, 0, nil, true)
	indentLine(b, depth, levelLine(lp, src, ap)+an.find(slot, anMatch).suffix())
}

// explainTree is a statement's compiled form plus its CTEs' compiled
// forms: one compileSelect per (sub)statement, shared between stub
// prediction and rendering.
type explainTree struct {
	stmt *SelectStmt
	cs   *selectCompiled
	kids map[string]*explainTree // by lower-case CTE name
}

// predictSelect compiles a statement the way execution would, with EXPLAIN
// stubs standing in for CTE result sets (column names plus the predicted
// order/constant annotations), so order propagation matches the real run.
// env gains the statement's CTE stubs as a side effect; each CTE compiles
// exactly once, and its compiled form rides along for rendering.
func (db *DB) predictSelect(s *SelectStmt, env *execEnv, extWant []OrderKey) (*explainTree, error) {
	et := &explainTree{stmt: s}
	wants := db.cteWants(s, env, wantKeysOf(s, extWant))
	if len(s.With) > 0 {
		et.kids = make(map[string]*explainTree, len(s.With))
	}
	for _, cte := range s.With {
		key := strings.ToLower(cte.Name)
		kid, err := db.predictSelect(cte.Select, newEnvFrom(env), wants[key])
		if err != nil {
			return nil, fmt.Errorf("relational: CTE %s: %w", cte.Name, err)
		}
		stub := &Rows{Cols: cteColumns(cte)}
		stub.order, stub.consts, stub.orderUnique = kid.cs.achievedOrder()
		stub.single = kid.cs.singleRow
		env.ctes[key] = stub
		et.kids[key] = kid
	}
	cs, err := db.compileSelect(s, env, extWant)
	if err != nil {
		return nil, err
	}
	et.cs = cs
	return et, nil
}

// selectTree returns the compiled tree to render for s: the forms an
// ANALYZE run recorded when it executed them, otherwise — no run, or a
// sub-statement the run never reached — the predicted compile.
func (db *DB) selectTree(s *SelectStmt, an *analyzeRun) (*explainTree, error) {
	cs := an.selectFor(s)
	if cs == nil {
		return db.predictSelect(s, newEnv(nil), nil)
	}
	et := &explainTree{stmt: s, cs: cs}
	if len(s.With) > 0 {
		et.kids = make(map[string]*explainTree, len(s.With))
	}
	for _, cte := range s.With {
		kid, err := db.selectTree(cte.Select, an)
		if err != nil {
			return nil, err
		}
		et.kids[strings.ToLower(cte.Name)] = kid
	}
	return et, nil
}

func (db *DB) renderSelect(b *strings.Builder, s *SelectStmt, an *analyzeRun, depth int) error {
	et, err := db.selectTree(s, an)
	if err != nil {
		return err
	}
	db.renderSelectTree(b, et, an, depth)
	return nil
}

func (db *DB) renderSelectTree(b *strings.Builder, et *explainTree, an *analyzeRun, depth int) {
	s, cs := et.stmt, et.cs
	if cs.explicit {
		keys := make([]string, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = exprString(k.Expr)
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		switch {
		case cs.elide && len(cs.bodies) > 1:
			// The branches already stream in key order; they merge instead
			// of sorting.
			indentLine(b, depth, fmt.Sprintf("MergeAll [%s]%s", strings.Join(keys, ", "), an.find(cs, anMerge).suffix()))
			depth++
		case cs.elide:
			// Single ordered branch: the sort disappears entirely.
		default:
			indentLine(b, depth, fmt.Sprintf("Sort [%s]%s", strings.Join(keys, ", "), an.find(cs, anSort).suffix()))
			depth++
		}
	}
	if len(s.Body) > 1 && !(cs.explicit && cs.elide) {
		indentLine(b, depth, "UnionAll"+an.find(cs, anUnion).suffix())
		depth++
	}
	for _, bc := range cs.bodies {
		renderBody(b, bc, an, depth)
	}
	for _, cte := range s.With {
		indentLine(b, depth, fmt.Sprintf("CTE %s", cte.Name))
		db.renderSelectTree(b, et.kids[strings.ToLower(cte.Name)], an, depth+1)
	}
}

func renderBody(b *strings.Builder, bc *bodyCompiled, an *analyzeRun, depth int) {
	s := bc.sel
	if s.Distinct {
		indentLine(b, depth, "Distinct"+an.find(bc, anDistinct).suffix())
		depth++
	}
	var exprs []string
	if s.Star {
		exprs = []string{"*"}
	} else {
		for _, se := range s.Exprs {
			exprs = append(exprs, exprString(se.Expr))
		}
	}
	head := "Project"
	if bc.aggregate {
		head = "Aggregate"
	}
	indentLine(b, depth, fmt.Sprintf("%s [%s]%s", head, strings.Join(exprs, ", "), an.find(bc, anProject).suffix()))
	depth++
	if len(bc.srcs) == 0 {
		indentLine(b, depth, "Values")
		return
	}
	for pos := len(bc.plan.levels) - 1; pos >= 0; pos-- {
		lp := bc.plan.levels[pos]
		indentLine(b, depth, levelLine(lp, bc.srcs[lp.slot], bc.access[pos])+an.find(bc, pos).suffix())
		depth++
	}
}

// levelLine renders one join level: its access path and gated filters.
func levelLine(lp levelPlan, src *source, ap accessPlan) string {
	label := src.name
	if src.table != nil && !strings.EqualFold(src.table.Name, src.name) {
		label = src.table.Name + " AS " + src.name
	}
	var line string
	switch ap.kind {
	case accessIndexProbe:
		line = fmt.Sprintf("IndexProbe %s (%s = %s)", label, ap.probe.col, exprString(ap.probe.expr))
	case accessInProbe:
		line = fmt.Sprintf("InProbe %s (%s)", label, exprString(ap.in.cond))
	case accessHashJoin:
		line = fmt.Sprintf("HashJoin %s (%s = %s)", label, ap.probe.col, exprString(ap.probe.expr))
	case accessOrderedProbe:
		line = fmt.Sprintf("OrderedProbe %s (%s) ordered [%s]", label, eqString(ap.eqPrefix), orderedColsString(ap, src))
	case accessRangeScan:
		line = fmt.Sprintf("RangeScan %s (%s)", label, rangeString(ap))
	case accessOrderedScan:
		line = fmt.Sprintf("OrderedScan %s ordered [%s]", label, orderedColsString(ap, src))
	case accessSortedProbe:
		var cols []string
		for _, ot := range ap.innerOrder {
			name := fmt.Sprintf("#%d", ot.col)
			if src.table != nil {
				name = src.table.Schema.Columns[ot.col].Name
			}
			if ot.desc {
				name += " DESC"
			}
			cols = append(cols, name)
		}
		line = fmt.Sprintf("SortedProbe %s (%s = %s) ordered [%s]", label, ap.probe.col, exprString(ap.probe.expr), strings.Join(cols, ", "))
	default:
		line = fmt.Sprintf("Scan %s", label)
	}
	if len(lp.conds) > 0 {
		parts := make([]string, len(lp.conds))
		for i, c := range lp.conds {
			parts[i] = exprString(c)
		}
		line += fmt.Sprintf(" filter [%s]", strings.Join(parts, " AND "))
	}
	return line
}

// eqString renders an equality prefix (parentId = Q1.C1, pos = 2).
func eqString(eqs []probeCand) string {
	parts := make([]string, len(eqs))
	for i, c := range eqs {
		parts[i] = fmt.Sprintf("%s = %s", c.col, exprString(c.expr))
	}
	return strings.Join(parts, ", ")
}

// rangeString renders a range window: the equality prefix plus bounds.
func rangeString(ap accessPlan) string {
	var parts []string
	for _, c := range ap.eqPrefix {
		parts = append(parts, fmt.Sprintf("%s = %s", c.col, exprString(c.expr)))
	}
	if ap.lo != nil {
		parts = append(parts, fmt.Sprintf("%s %s %s", ap.lo.col, ap.lo.op, exprString(ap.lo.expr)))
	}
	if ap.hi != nil {
		parts = append(parts, fmt.Sprintf("%s %s %s", ap.hi.col, ap.hi.op, exprString(ap.hi.expr)))
	}
	return strings.Join(parts, " AND ")
}

// orderedColsString renders the key columns an ordered access streams in.
func orderedColsString(ap accessPlan, src *source) string {
	var parts []string
	for i := len(ap.eqPrefix); i < len(ap.oidx.cols); i++ {
		ci := ap.oidx.cols[i]
		if src.table != nil {
			parts = append(parts, src.table.Schema.Columns[ci].Name)
		} else {
			parts = append(parts, fmt.Sprintf("#%d", ci))
		}
	}
	if ap.desc {
		return strings.Join(parts, ", ") + " DESC"
	}
	return strings.Join(parts, ", ")
}

// cteColumns derives a CTE's output columns without executing it.
func cteColumns(cte CTE) []string {
	if len(cte.Cols) > 0 {
		return cte.Cols
	}
	if len(cte.Select.Body) > 0 && !cte.Select.Body[0].Star {
		return outputColumns(cte.Select.Body[0], nil)
	}
	return nil
}
