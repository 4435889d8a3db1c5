package relational

import (
	"fmt"
	"strings"
)

// Logical planning for SELECT bodies and DML row matching. A SimpleSelect is
// compiled into a simplePlan: an execution order over its FROM sources, the
// WHERE conjuncts gated at each join level, and the equality candidates each
// level can use as an access path (index probe or hash join). Ordering is
// greedy and reads selectivity from syntax alone — an equality against a
// constant seeds the pipeline, equality join edges onto indexed key columns
// extend it — in the spirit of pattern-selectivity join ordering; no
// cardinality statistics are consulted, so plans are stable and cacheable.

// probeCand is an equality conjunct `col = expr` usable as an access path
// for one source: col belongs to the source and expr references only
// sources bound at earlier levels (or nothing at all).
type probeCand struct {
	col  string
	expr Expr
	// cond is the conjunct this candidate was derived from. When a
	// hash-keyed access path (hash index probe, transient hash join) is
	// chosen for the candidate, the probe enforces the equality exactly —
	// joinKey equality coincides with SQL equality, and NULLs are excluded
	// on both the stored and probe sides — so the executor skips
	// re-evaluating this conjunct per row.
	cond Expr
	// correlated reports whether expr references earlier sources (a join
	// edge) rather than only constants/params/OLD.
	correlated bool
}

// rangeCand is an inequality conjunct `col OP expr` (OP ∈ <, <=, >, >=,
// with BETWEEN already desugared by the parser) usable as a B+tree range
// bound: col belongs to the source and expr references only earlier-bound
// sources. op is normalized so col is always on the left.
type rangeCand struct {
	col  string
	op   string
	expr Expr
}

// inCand is a conjunct `col IN (c1, …, ck)` whose items are all constants
// (literals or parameters), usable as a multi-key hash probe: one bucket per
// item, unioned. cond is the conjunct itself, which stays gated and is
// re-checked per row.
type inCand struct {
	col   string
	items []Expr
	cond  Expr
}

// flipOp mirrors a comparison across its operands (`5 <= pos` → `pos >= 5`).
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// levelPlan is one pipeline stage of a join: which FROM slot it binds, the
// conjuncts first checkable here, and its access-path candidates.
// schemaVer is used only when a levelPlan stands alone as a DML access
// path (matchPlanFor); inside a simplePlan the enclosing plan carries it.
type levelPlan struct {
	slot      int // index into the original FROM list (and the binding)
	conds     []Expr
	cands     []probeCand
	ranges    []rangeCand
	ins       []inCand
	schemaVer int64
}

// simplePlan is the compiled form of one SimpleSelect body. schemaVer
// records the DB schema version it was planned under: name resolution and
// conjunct gating bake in column membership, so DDL invalidates the plan.
type simplePlan struct {
	levels    []levelPlan
	schemaVer int64

	// access caches the physical access-path choice for executions with no
	// order interest, valid while the source tables' summed indexEpoch is
	// unchanged (accessValid gates first use). Bodies over CTE sources are
	// not cached — their result sets differ per execution.
	access      []accessPlan
	accessEpoch int64
	accessValid bool
}

// planFor returns the plan compiled into a SimpleSelect, building it on
// first use and rebuilding it when DDL has changed the schema since. The
// plan lives on the AST node, so it shares the lifetime of whatever holds
// the statement — the shape cache or a trigger body — and
// disappears with it. The cache slot is guarded by planMu: shape-cached
// ASTs are shared between concurrent shared-lock readers. Plans record
// only column names and expression references, so they stay valid across
// data changes; access-path choice is re-validated against live indexes at
// execution time.
func (db *DB) planFor(s *SimpleSelect, srcs []*source) *simplePlan {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	if s.plan == nil || s.plan.schemaVer != db.schemaVer {
		p := planSimple(s, srcs)
		p.schemaVer = db.schemaVer
		s.plan = p
	}
	return s.plan
}

// planSimple compiles a SimpleSelect body against resolved sources.
func planSimple(s *SimpleSelect, srcs []*source) *simplePlan {
	var conjs []Expr
	if s.Where != nil {
		conjs = splitAnd(s.Where)
	}
	refs := make([][]int, len(conjs))
	for i, c := range conjs {
		refs[i] = refSlots(c, srcs)
	}
	order := orderSources(srcs, conjs, refs)

	// posOf[slot] = level at which the slot is bound.
	posOf := make([]int, len(srcs))
	for lvl, slot := range order {
		posOf[slot] = lvl
	}

	plan := &simplePlan{levels: make([]levelPlan, len(order))}
	for lvl, slot := range order {
		plan.levels[lvl] = levelPlan{slot: slot}
	}

	// Gate each conjunct at the first level where all its references are
	// bound.
	for i, c := range conjs {
		lvl := 0
		for _, slot := range refs[i] {
			if posOf[slot] > lvl {
				lvl = posOf[slot]
			}
		}
		if len(plan.levels) == 0 {
			continue // no FROM: WHERE is ignored, matching prior semantics
		}
		plan.levels[lvl].conds = append(plan.levels[lvl].conds, c)
	}

	// Collect access-path candidates per level from its gated conjuncts.
	for lvl := range plan.levels {
		slot := plan.levels[lvl].slot
		for _, c := range plan.levels[lvl].conds {
			if col, expr, ok := probeCandidate(c, slot, srcs, posOf, lvl); ok {
				plan.levels[lvl].cands = append(plan.levels[lvl].cands, probeCand{
					col:        col,
					expr:       expr,
					cond:       c,
					correlated: len(refSlots(expr, srcs)) > 0,
				})
				continue
			}
			if rc, ok := rangeCandidate(c, slot, srcs, posOf, lvl); ok {
				plan.levels[lvl].ranges = append(plan.levels[lvl].ranges, rc)
				continue
			}
			if ic, ok := inCandidate(c, slot, srcs); ok {
				plan.levels[lvl].ins = append(plan.levels[lvl].ins, ic)
			}
		}
	}
	return plan
}

// matchPlanFor returns the DML access-path plan compiled into a
// DELETE/UPDATE statement node, building it on first use and rebuilding it
// after DDL — trigger bodies fire the same AST thousands of times, so
// per-firing re-planning is avoided. planMu guards the slot like the other
// AST-resident caches (DML runs under the exclusive lock, but EXPLAIN
// shares this path).
func (db *DB) matchPlanFor(slot **levelPlan, name string, t *Table, where Expr) levelPlan {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	if *slot == nil || (*slot).schemaVer != db.schemaVer {
		p := planMatch(name, t, where)
		p.schemaVer = db.schemaVer
		*slot = &p
	}
	return **slot
}

// planMatch compiles a single-table WHERE into a one-level plan (the DML
// access path of DELETE/UPDATE).
func planMatch(name string, t *Table, where Expr) levelPlan {
	src := &source{name: name, table: t}
	srcs := []*source{src}
	lp := levelPlan{slot: 0}
	if where == nil {
		return lp
	}
	lp.conds = splitAnd(where)
	posOf := []int{0}
	for _, c := range lp.conds {
		if col, expr, ok := probeCandidate(c, 0, srcs, posOf, 0); ok {
			lp.cands = append(lp.cands, probeCand{col: col, expr: expr, cond: c})
			continue
		}
		if rc, ok := rangeCandidate(c, 0, srcs, posOf, 0); ok {
			lp.ranges = append(lp.ranges, rc)
			continue
		}
		if ic, ok := inCandidate(c, 0, srcs); ok {
			lp.ins = append(lp.ins, ic)
		}
	}
	return lp
}

// refSlots returns the (deduplicated) source slots an expression references.
// OLD-qualified references and unresolvable names contribute nothing.
func refSlots(e Expr, srcs []*source) []int {
	var out []int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *ColumnRef:
			slot := resolveSlot(x, srcs)
			if slot < 0 {
				return
			}
			for _, s := range out {
				if s == slot {
					return
				}
			}
			out = append(out, slot)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Unary:
			walk(x.X)
		case *IsNull:
			walk(x.X)
		case *InExpr:
			walk(x.X)
			for _, l := range x.List {
				walk(l)
			}
		case *FuncCall:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	walk(e)
	return out
}

// resolveSlot maps a column reference to the FROM slot it binds against, or
// -1 (OLD rows, unknown names). Unqualified references resolve to the last
// source having the column, matching binding resolution order; ambiguity is
// rejected earlier by validateRefs.
func resolveSlot(cr *ColumnRef, srcs []*source) int {
	if strings.EqualFold(cr.Table, "OLD") {
		return -1
	}
	if cr.Table != "" {
		for i, src := range srcs {
			if strings.EqualFold(src.name, cr.Table) {
				return i
			}
		}
		return -1
	}
	for i := len(srcs) - 1; i >= 0; i-- {
		if srcs[i].columnIndex(cr.Name) >= 0 {
			return i
		}
	}
	return -1
}

// probeCandidate checks whether conjunct c is `slot.col = expr` (either
// side) with expr referencing only earlier-bound sources and containing no
// aggregate, returning the column and probe expression.
func probeCandidate(c Expr, slot int, srcs []*source, posOf []int, lvl int) (string, Expr, bool) {
	b, ok := c.(*Binary)
	if !ok || b.Op != "=" {
		return "", nil, false
	}
	try := func(l, r Expr) (string, Expr, bool) {
		cr, ok := l.(*ColumnRef)
		if !ok || resolveSlot(cr, srcs) != slot {
			return "", nil, false
		}
		if containsAggregate(r) {
			return "", nil, false
		}
		for _, s := range refSlots(r, srcs) {
			if posOf[s] >= lvl {
				return "", nil, false
			}
		}
		return cr.Name, r, true
	}
	if col, e, ok := try(b.L, b.R); ok {
		return col, e, ok
	}
	return try(b.R, b.L)
}

// rangeCandidate checks whether conjunct c is `slot.col OP expr` (either
// side, OP an inequality) with expr referencing only earlier-bound sources,
// returning the normalized candidate.
func rangeCandidate(c Expr, slot int, srcs []*source, posOf []int, lvl int) (rangeCand, bool) {
	b, ok := c.(*Binary)
	if !ok {
		return rangeCand{}, false
	}
	switch b.Op {
	case "<", "<=", ">", ">=":
	default:
		return rangeCand{}, false
	}
	try := func(l, r Expr, op string) (rangeCand, bool) {
		cr, ok := l.(*ColumnRef)
		if !ok || resolveSlot(cr, srcs) != slot {
			return rangeCand{}, false
		}
		if containsAggregate(r) {
			return rangeCand{}, false
		}
		for _, s := range refSlots(r, srcs) {
			if posOf[s] >= lvl {
				return rangeCand{}, false
			}
		}
		return rangeCand{col: cr.Name, op: op, expr: r}, true
	}
	if rc, ok := try(b.L, b.R, b.Op); ok {
		return rc, true
	}
	return try(b.R, b.L, flipOp(b.Op))
}

// inCandidate checks whether conjunct c is `slot.col IN (c1, …, ck)` with
// every item a literal or parameter. NOT IN and IN (subquery) are not
// candidates: neither names the keys to probe.
func inCandidate(c Expr, slot int, srcs []*source) (inCand, bool) {
	in, ok := c.(*InExpr)
	if !ok || in.Negate || in.Select != nil || len(in.List) == 0 {
		return inCand{}, false
	}
	cr, ok := in.X.(*ColumnRef)
	if !ok || resolveSlot(cr, srcs) != slot {
		return inCand{}, false
	}
	for _, item := range in.List {
		switch item.(type) {
		case *Literal, *Param:
		default:
			return inCand{}, false
		}
	}
	return inCand{col: cr.Name, items: in.List, cond: c}, true
}

// orderSources greedily orders the FROM slots: the most syntactically
// selective source seeds the pipeline, then the source best connected to
// the already-bound set is appended, preferring equality edges onto indexed
// columns (index probes), then any equality edge (hash join), then any
// connecting predicate, and finally cross products. Ties keep the written
// FROM order, so queries with no exploitable structure run exactly as
// before.
func orderSources(srcs []*source, conjs []Expr, refs [][]int) []int {
	n := len(srcs)
	order := make([]int, 0, n)
	if n <= 1 {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		return order
	}
	bound := make([]bool, n)
	for len(order) < n {
		best, bestScore := -1, -1
		for slot := 0; slot < n; slot++ {
			if bound[slot] {
				continue
			}
			score := accessScore(slot, srcs, conjs, refs, bound)
			if score > bestScore {
				best, bestScore = slot, score
			}
		}
		bound[best] = true
		order = append(order, best)
	}
	return order
}

// accessScore rates binding `slot` next, given the already-bound set:
//
//	8 — equality on an indexed column whose other side is already computable
//	6 — equality whose other side is already computable (hash-joinable /
//	    constant selection)
//	5 — inequality on the leading column of an ordered index with the other
//	    side computable (a B+tree range probe)
//	4 — some conjunct becomes fully checkable here
//	2 — the source has any single-source predicate at all
//	0 — cross product
//
// The range tier sits between equality and mere checkability: a bounded
// B+tree walk reads only the window, but an equality probe is still tighter.
func accessScore(slot int, srcs []*source, conjs []Expr, refs [][]int, bound []bool) int {
	score := 0
	for i, c := range conjs {
		mentionsSlot := false
		allBoundOrSelf := true
		for _, s := range refs[i] {
			if s == slot {
				mentionsSlot = true
			} else if !bound[s] {
				allBoundOrSelf = false
			}
		}
		if !mentionsSlot {
			continue
		}
		if !allBoundOrSelf {
			if score < 2 {
				score = 2
			}
			continue
		}
		// Fully checkable once slot binds.
		if score < 4 {
			score = 4
		}
		b, ok := c.(*Binary)
		if !ok {
			continue
		}
		if b.Op == "=" {
			if col, ok := equalitySide(b, slot, srcs, bound); ok {
				if t := srcs[slot].table; t != nil && (t.lookupIndex(col) != nil || t.orderedLeadIndex(col) != nil) {
					return 8
				}
				if score < 6 {
					score = 6
				}
			}
		} else if score < 5 && (b.Op == "<" || b.Op == "<=" || b.Op == ">" || b.Op == ">=") {
			if col, ok := inequalitySide(b, slot, srcs, bound); ok {
				if t := srcs[slot].table; t != nil && t.orderedLeadIndex(col) != nil {
					score = 5
				}
			}
		}
	}
	return score
}

// inequalitySide checks `slot.col OP expr(bound sources)` in either
// direction and returns the column name on slot's side.
func inequalitySide(b *Binary, slot int, srcs []*source, bound []bool) (string, bool) {
	try := func(l, r Expr) (string, bool) {
		cr, ok := l.(*ColumnRef)
		if !ok || resolveSlot(cr, srcs) != slot {
			return "", false
		}
		for _, s := range refSlots(r, srcs) {
			if s == slot || !bound[s] {
				return "", false
			}
		}
		return cr.Name, true
	}
	if col, ok := try(b.L, b.R); ok {
		return col, ok
	}
	return try(b.R, b.L)
}

// equalitySide checks `slot.col = expr(bound sources)` in either direction
// and returns the column name on slot's side.
func equalitySide(b *Binary, slot int, srcs []*source, bound []bool) (string, bool) {
	try := func(l, r Expr) (string, bool) {
		cr, ok := l.(*ColumnRef)
		if !ok || resolveSlot(cr, srcs) != slot {
			return "", false
		}
		for _, s := range refSlots(r, srcs) {
			if s == slot || !bound[s] {
				return "", false
			}
		}
		return cr.Name, true
	}
	if col, ok := try(b.L, b.R); ok {
		return col, ok
	}
	return try(b.R, b.L)
}

// ---- expression rendering (EXPLAIN) ----

// exprString renders an expression as SQL-ish text for plan display.
func exprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		return FormatValue(x.Value)
	case *Param:
		return "?"
	case *ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case *Binary:
		return fmt.Sprintf("%s %s %s", exprString(x.L), x.Op, exprString(x.R))
	case *Unary:
		if x.Op == "NOT" {
			return "NOT " + exprString(x.X)
		}
		return x.Op + exprString(x.X)
	case *IsNull:
		if x.Negate {
			return exprString(x.X) + " IS NOT NULL"
		}
		return exprString(x.X) + " IS NULL"
	case *InExpr:
		op := "IN"
		if x.Negate {
			op = "NOT IN"
		}
		if x.Select != nil {
			return fmt.Sprintf("%s %s (<subquery>)", exprString(x.X), op)
		}
		parts := make([]string, len(x.List))
		for i, l := range x.List {
			parts[i] = exprString(l)
		}
		return fmt.Sprintf("%s %s (%s)", exprString(x.X), op, strings.Join(parts, ", "))
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		return fmt.Sprintf("%s(%s)", x.Name, exprString(x.Arg))
	default:
		return fmt.Sprintf("%T", e)
	}
}
