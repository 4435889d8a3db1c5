package relational

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ---- DML execution ----

func (db *DB) execInsert(s *InsertStmt, env *execEnv) (int, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return 0, fmt.Errorf("relational: no table %q", s.Table)
	}
	// Column mapping: with an explicit column list, unspecified columns get
	// NULL; otherwise values are positional across the whole schema.
	colIdx := make([]int, 0, len(s.Cols))
	for _, c := range s.Cols {
		ci := t.Schema.ColumnIndex(c)
		if ci < 0 {
			return 0, fmt.Errorf("relational: table %s has no column %q", t.Name, c)
		}
		colIdx = append(colIdx, ci)
	}
	buildRow := func(vals []Value) ([]Value, error) {
		if len(s.Cols) == 0 {
			if len(vals) != len(t.Schema.Columns) {
				return nil, fmt.Errorf("relational: table %s expects %d values, got %d", t.Name, len(t.Schema.Columns), len(vals))
			}
			return vals, nil
		}
		if len(vals) != len(colIdx) {
			return nil, fmt.Errorf("relational: %d columns but %d values", len(colIdx), len(vals))
		}
		row := make([]Value, len(t.Schema.Columns))
		for i, ci := range colIdx {
			row[ci] = vals[i]
		}
		return row, nil
	}

	n := 0
	if s.Select != nil {
		rows, err := db.execSelect(s.Select, env)
		if err != nil {
			return 0, err
		}
		for _, r := range rows.Data {
			row, err := buildRow(r)
			if err != nil {
				return 0, err
			}
			if _, err := t.Insert(row); err != nil {
				return 0, err
			}
			n++
		}
	} else {
		ev := newEval(db, env)
		for _, exprRow := range s.Rows {
			vals := make([]Value, len(exprRow))
			for i, e := range exprRow {
				v, err := ev.eval(e, nil)
				if err != nil {
					return 0, err
				}
				vals[i] = v
			}
			row, err := buildRow(vals)
			if err != nil {
				return 0, err
			}
			if _, err := t.Insert(row); err != nil {
				return 0, err
			}
			n++
		}
	}
	db.stats.RowsInserted.Add(int64(n))
	return n, nil
}

func (db *DB) execDelete(s *DeleteStmt, env *execEnv) (int, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return 0, fmt.Errorf("relational: no table %q", s.Table)
	}
	rids, err := db.matchRows(&s.plan, t, s.Table, s.Where, env)
	if err != nil {
		return 0, err
	}
	deleted := make([][]Value, 0, len(rids))
	for _, rid := range rids {
		old, err := t.Delete(rid)
		if err != nil {
			return 0, err
		}
		deleted = append(deleted, old)
	}
	db.stats.RowsDeleted.Add(int64(len(deleted)))
	if err := db.fireDeleteTriggers(t, deleted, env); err != nil {
		return 0, err
	}
	return len(deleted), nil
}

func (db *DB) execUpdate(s *UpdateStmt, env *execEnv) (int, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return 0, fmt.Errorf("relational: no table %q", s.Table)
	}
	rids, err := db.matchRows(&s.plan, t, s.Table, s.Where, env)
	if err != nil {
		return 0, err
	}
	cols := make([]int, len(s.Set))
	for i, sc := range s.Set {
		ci := t.Schema.ColumnIndex(sc.Col)
		if ci < 0 {
			return 0, fmt.Errorf("relational: table %s has no column %q", t.Name, sc.Col)
		}
		cols[i] = ci
	}
	ev := newEval(db, env)
	vals := make([]Value, len(s.Set))
	for _, rid := range rids {
		binding := singleBinding(s.Table, t, t.visibleRow(rid, env.snap))
		for i, sc := range s.Set {
			v, err := ev.eval(sc.Val, binding)
			if err != nil {
				return 0, err
			}
			vals[i] = v
		}
		if err := t.Update(rid, cols, vals); err != nil {
			return 0, err
		}
	}
	db.stats.RowsUpdated.Add(int64(len(rids)))
	return len(rids), nil
}

// matchRows returns rowids of t satisfying where, in ascending order. The
// access path — hash probe, IN-list probe, B+tree range scan, or full scan —
// is chosen by the same chooseAccessPlan the SELECT pipeline uses; the plan
// is compiled into the statement node. The loop itself is direct rather
// than an iterator chain: trigger bodies run it once per firing, so it
// stays lean.
func (db *DB) matchRows(planSlot **levelPlan, t *Table, name string, where Expr, env *execEnv) (rids []int, err error) {
	lp := db.matchPlanFor(planSlot, name, t, where)
	ev := newEval(db, env)
	bind := singleBinding(name, t, nil)
	check := func(row []Value) (bool, error) {
		bind.rows[0] = row
		for _, c := range lp.conds {
			ok, err := ev.evalBool(c, bind)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
	var ctr levelCounters
	defer ctr.flush(db)
	if an := env.an; an != nil {
		// EXPLAIN ANALYZE record for the DML access path, keyed by the
		// statement's plan slot. Registered after the flush defer so the
		// fold (LIFO) sees the batch before it zeroes.
		m := an.op(planSlot, anMatch)
		m.loops.Add(1)
		t0 := time.Now()
		defer func() {
			m.rows.Add(int64(len(rids)))
			m.scanned.Add(ctr.rowsScanned)
			m.probes.Add(ctr.indexProbes + ctr.rangeProbes)
			m.ns.Add(int64(time.Since(t0)))
		}()
	}
	ap := chooseAccessPlan(lp, bind.srcs[0], 0, nil, true)
	var bucket []int
	var one [1]int
	switch ap.kind {
	case accessIndexProbe:
		ctr.indexProbes++
		v, err := ev.eval(ap.probe.expr, bind)
		if err != nil {
			return nil, err
		}
		bucket = ap.idx.probe(v, &one)
	case accessInProbe:
		if bucket, err = inBucketFor(&ctr, ev, &ap, bind, nil); err != nil {
			return nil, err
		}
	case accessOrderedProbe, accessRangeScan:
		// Walk the B+tree window; bound expressions are constants or OLD
		// references here (single-table DML), evaluated once.
		if bucket, err = orderedBucketFor(&ctr, ev, &ap, t, bind, env.snap, nil); err != nil {
			return nil, err
		}
	default:
		ctr.fullScans++
		var c rowCursor
		defer c.release()
		for rid := range t.rows {
			row := c.visibleAt(t, rid, env.snap)
			if row == nil {
				continue
			}
			ctr.rowsScanned++
			keep, err := check(row)
			if err != nil {
				return nil, err
			}
			if keep {
				rids = append(rids, rid)
			}
		}
		return rids, nil
	}
	for _, rid := range bucket {
		if rid < 0 {
			continue // a hash bucket's tombstone
		}
		row := t.visibleRow(rid, env.snap)
		if row == nil {
			continue
		}
		ctr.rowsScanned++
		keep, err := check(row)
		if err != nil {
			return nil, err
		}
		if keep {
			rids = append(rids, rid)
		}
	}
	sort.Ints(rids)
	return rids, nil
}

func splitAnd(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

// ---- SELECT execution ----

// source is a joinable input: a base table or a materialized row set.
type source struct {
	name  string
	table *Table // non-nil for base tables
	rows  *Rows  // non-nil for CTEs
}

func (s *source) columns() []string {
	if s.table != nil {
		out := make([]string, len(s.table.Schema.Columns))
		for i, c := range s.table.Schema.Columns {
			out[i] = c.Name
		}
		return out
	}
	return s.rows.Cols
}

func (s *source) columnIndex(name string) int {
	if s.table != nil {
		return s.table.Schema.ColumnIndex(name)
	}
	for i, c := range s.rows.Cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// binding maps source names (lower-cased) to current rows.
type binding struct {
	names []string
	srcs  []*source
	rows  [][]Value
}

func singleBinding(name string, t *Table, row []Value) *binding {
	return &binding{
		names: []string{strings.ToLower(name)},
		srcs:  []*source{{name: name, table: t}},
		rows:  [][]Value{row},
	}
}

// locate finds the (source, column) indexes of a reference; src is -1 when
// it does not resolve. For a given binding the answer is fixed — names and
// schemas never change after construction — which is what lets the
// evaluator memoize it per reference instead of re-running the
// case-insensitive scans on every row.
func (b *binding) locate(table, col string) (src, ci int, err error) {
	if table != "" {
		for i, n := range b.names {
			if strings.EqualFold(n, table) {
				ci := b.srcs[i].columnIndex(col)
				if ci < 0 {
					return -1, -1, fmt.Errorf("relational: source %s has no column %q", table, col)
				}
				return i, ci, nil
			}
		}
		return -1, -1, nil
	}
	src, ci = -1, -1
	for i := range b.names {
		c := b.srcs[i].columnIndex(col)
		if c < 0 {
			continue
		}
		if src >= 0 {
			return -1, -1, fmt.Errorf("relational: ambiguous column %q", col)
		}
		src, ci = i, c
	}
	return src, ci, nil
}

// resolve finds the value of a column reference in the binding.
func (b *binding) resolve(table, col string) (Value, bool, error) {
	if b == nil {
		return Null, false, nil
	}
	si, ci, err := b.locate(table, col)
	if err != nil || si < 0 {
		return Null, false, err
	}
	if b.rows[si] == nil {
		// A qualified reference to an unbound source is "not found" (the
		// evaluator reports it); an unqualified one reads as NULL.
		return Null, table == "", nil
	}
	return b.rows[si][ci], true, nil
}

// execSelect materializes a SELECT: CTEs are evaluated into the
// environment, each body branch compiles into a streaming pipeline, and the
// drained rows form the result.
func (db *DB) execSelect(s *SelectStmt, env *execEnv) (*Rows, error) {
	return db.execSelectWant(s, env, nil)
}

// materializeCTEs evaluates a statement's CTEs into env in WITH order, each
// steered by the order its consumers want (cteWants).
func (db *DB) materializeCTEs(s *SelectStmt, env *execEnv, extWant []OrderKey) error {
	wants := db.cteWants(s, env, wantKeysOf(s, extWant))
	for _, cte := range s.With {
		key := strings.ToLower(cte.Name)
		rows, err := db.materializeCTE(cte, env, wants[key])
		if err != nil {
			return err
		}
		env.ctes[key] = rows
	}
	return nil
}

// materializeCTE evaluates one CTE, applying its declared column renames.
func (db *DB) materializeCTE(cte CTE, env *execEnv, want []OrderKey) (*Rows, error) {
	rows, err := db.execSelectWant(cte.Select, env, want)
	if err != nil {
		return nil, fmt.Errorf("relational: CTE %s: %w", cte.Name, err)
	}
	if len(cte.Cols) > 0 {
		if len(cte.Cols) != len(rows.Cols) {
			return nil, fmt.Errorf("relational: CTE %s declares %d columns, query yields %d", cte.Name, len(cte.Cols), len(rows.Cols))
		}
		rows = &Rows{Cols: cte.Cols, Data: rows.Data, order: rows.order, consts: rows.consts, single: rows.single, orderUnique: rows.orderUnique}
	}
	return rows, nil
}

// execSelectWant materializes a SELECT with an advisory desired order (the
// want an enclosing statement propagated into this CTE): the stream into a
// collector that also records the order metadata CTE scans rely on. The
// want steers access paths; it never adds a sort.
func (db *DB) execSelectWant(s *SelectStmt, env *execEnv, extWant []OrderKey) (*Rows, error) {
	out := &Rows{}
	cs, _, err := db.streamSelect(s, env, extWant, out.appendRow)
	if err != nil {
		return nil, err
	}
	out.Cols = cs.cols
	out.order, out.consts, out.orderUnique = cs.achievedOrder()
	out.single = len(out.Data) <= 1
	return out, nil
}

// streamSelect is the one SELECT driver: CTEs materialize into the
// environment, then the statement's pipeline runs row by row into fn. It
// returns the compiled statement top (nil when compilation failed) and the
// number of rows fn received. fn must not issue further statements on the
// same DB.
func (db *DB) streamSelect(s *SelectStmt, env *execEnv, extWant []OrderKey, fn func([]Value) error) (*selectCompiled, int, error) {
	if err := db.pagedErr(); err != nil {
		return nil, 0, err
	}
	env = newEnvFrom(env)
	if err := db.materializeCTEs(s, env, extWant); err != nil {
		return nil, 0, err
	}
	it, cs, err := db.buildSelectIter(s, env, extWant)
	if err != nil {
		return nil, 0, err
	}
	if err := it.Open(); err != nil {
		// Close even though Open failed: a compound iterator (merge, sort)
		// may have opened some children before erroring, and their batched
		// counters must still flush.
		it.Close()
		return cs, 0, err
	}
	defer it.Close()
	for n := 0; ; n++ {
		row, ok, err := it.Next()
		if err != nil {
			return cs, n, err
		}
		if !ok {
			return cs, n, nil
		}
		if err := fn(row); err != nil {
			return cs, n + 1, err
		}
	}
}

// wantKeysOf returns the order keys that describe a statement's output: its
// own ORDER BY, or the advisory want handed down by its consumer.
func wantKeysOf(s *SelectStmt, extWant []OrderKey) []OrderKey {
	if len(s.OrderBy) > 0 {
		return s.OrderBy
	}
	return extWant
}

func newEnvFrom(parent *execEnv) *execEnv {
	if parent == nil {
		return newEnv(nil)
	}
	return newEnv(parent)
}

// validateRefs checks that every non-OLD column reference resolves against
// exactly one source. Subquery internals validate when they execute.
func validateRefs(e Expr, srcs []*source) error {
	switch x := e.(type) {
	case *ColumnRef:
		if strings.EqualFold(x.Table, "OLD") {
			return nil
		}
		matches := 0
		for _, src := range srcs {
			if x.Table != "" && !strings.EqualFold(src.name, x.Table) {
				continue
			}
			if src.columnIndex(x.Name) >= 0 {
				matches++
			}
		}
		if matches == 0 {
			if x.Table != "" {
				return fmt.Errorf("relational: unknown column %s.%s", x.Table, x.Name)
			}
			return fmt.Errorf("relational: unknown column %q", x.Name)
		}
		if matches > 1 && x.Table == "" {
			return fmt.Errorf("relational: ambiguous column %q", x.Name)
		}
		return nil
	case *Binary:
		if err := validateRefs(x.L, srcs); err != nil {
			return err
		}
		return validateRefs(x.R, srcs)
	case *Unary:
		return validateRefs(x.X, srcs)
	case *IsNull:
		return validateRefs(x.X, srcs)
	case *InExpr:
		if err := validateRefs(x.X, srcs); err != nil {
			return err
		}
		for _, l := range x.List {
			if err := validateRefs(l, srcs); err != nil {
				return err
			}
		}
		return nil
	case *FuncCall:
		if x.Arg != nil {
			return validateRefs(x.Arg, srcs)
		}
		return nil
	default:
		return nil
	}
}

func containsAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		return true
	case *Binary:
		return containsAggregate(x.L) || containsAggregate(x.R)
	case *Unary:
		return containsAggregate(x.X)
	default:
		return false
	}
}

// aggAccumulator folds MIN/MAX/COUNT across joined tuples. The top-level
// expression may combine aggregates arithmetically (e.g. MAX(id)-MIN(id)+1);
// accumulation happens at the FuncCall leaves.
type aggAccumulator struct {
	leaves map[*FuncCall]*aggLeaf
}

type aggLeaf struct {
	count int64
	min   Value // NULL until the first non-NULL input (aggregates skip NULLs)
	max   Value
}

func (a *aggAccumulator) feed(ev *exprEval, e Expr, bind *binding) error {
	if a.leaves == nil {
		a.leaves = make(map[*FuncCall]*aggLeaf)
	}
	var walk func(e Expr) error
	walk = func(e Expr) error {
		switch x := e.(type) {
		case *FuncCall:
			leaf := a.leaves[x]
			if leaf == nil {
				leaf = &aggLeaf{}
				a.leaves[x] = leaf
			}
			if x.Star {
				leaf.count++
				return nil
			}
			v, err := ev.eval(x.Arg, bind)
			if err != nil {
				return err
			}
			if v.IsNull() {
				return nil // NULLs are ignored by aggregates
			}
			leaf.count++
			if leaf.min.IsNull() || compareValues(v, leaf.min) < 0 {
				leaf.min = v
			}
			if leaf.max.IsNull() || compareValues(v, leaf.max) > 0 {
				leaf.max = v
			}
			return nil
		case *Binary:
			if err := walk(x.L); err != nil {
				return err
			}
			return walk(x.R)
		case *Unary:
			return walk(x.X)
		default:
			return nil
		}
	}
	return walk(e)
}

func (a *aggAccumulator) result(ev *exprEval, e Expr) Value {
	var eval func(e Expr) Value
	eval = func(e Expr) Value {
		switch x := e.(type) {
		case *FuncCall:
			leaf := a.leaves[x]
			if leaf == nil {
				leaf = &aggLeaf{}
			}
			switch x.Name {
			case "COUNT":
				return Int(leaf.count)
			case "MIN":
				return leaf.min
			case "MAX":
				return leaf.max
			}
			return Null
		case *Binary:
			l := eval(x.L)
			r := eval(x.R)
			v, _ := arith(x.Op, l, r)
			return v
		case *Unary:
			v := eval(x.X)
			if x.Op == "-" {
				if n, ok := v.Int(); ok {
					return Int(-n)
				}
			}
			return v
		case *Literal:
			return x.Value
		case *Param:
			if ev != nil && x.Index >= 0 && x.Index < len(ev.args) {
				return ev.args[x.Index]
			}
			return Null
		default:
			return Null
		}
	}
	return eval(e)
}

// ---- expression evaluation ----

type exprEval struct {
	db   *DB
	env  *execEnv
	args []Value
	// inCache memoizes uncorrelated IN-subquery result sets per statement.
	inCache map[*SelectStmt]*keyMap
	// refs memoizes column-reference resolution per AST node and binding:
	// the (source, column) indexes are fixed for a binding's lifetime, so
	// after the first row each reference is two slice indexes instead of
	// case-insensitive name scans. Keyed by node pointer — the cache lives
	// per execution while AST nodes are shared read-only via the plan
	// cache, so nothing is written to shared state.
	refs map[*ColumnRef]refSlot
}

// refSlot is one memoized column-reference resolution.
type refSlot struct {
	bind     *binding
	src, col int
}

// newEval builds an evaluator for one statement execution, binding the
// environment's statement arguments.
func newEval(db *DB, env *execEnv) *exprEval {
	return &exprEval{db: db, env: env, args: env.lookupArgs()}
}

func (ev *exprEval) eval(e Expr, bind *binding) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, nil
	case *Param:
		if x.Index < 0 || x.Index >= len(ev.args) {
			return Null, fmt.Errorf("relational: unbound parameter ?%d", x.Index+1)
		}
		return ev.args[x.Index], nil
	case *ColumnRef:
		if strings.EqualFold(x.Table, "OLD") {
			old, t := ev.env.oldRow()
			if old == nil {
				return Null, fmt.Errorf("relational: OLD reference outside a row trigger")
			}
			ci := t.Schema.ColumnIndex(x.Name)
			if ci < 0 {
				return Null, fmt.Errorf("relational: OLD has no column %q", x.Name)
			}
			return old[ci], nil
		}
		if slot, ok := ev.refs[x]; ok && slot.bind == bind {
			if row := bind.rows[slot.src]; row != nil {
				return row[slot.col], nil
			}
		}
		v, ok, err := bind.resolve(x.Table, x.Name)
		if err != nil {
			return Null, err
		}
		if !ok {
			if x.Table != "" {
				return Null, fmt.Errorf("relational: unknown column %s.%s", x.Table, x.Name)
			}
			return Null, fmt.Errorf("relational: unknown column %q", x.Name)
		}
		if bind != nil {
			if si, ci, lerr := bind.locate(x.Table, x.Name); lerr == nil && si >= 0 {
				if ev.refs == nil {
					ev.refs = make(map[*ColumnRef]refSlot, 8)
				}
				ev.refs[x] = refSlot{bind: bind, src: si, col: ci}
			}
		}
		return v, nil
	case *Binary:
		switch x.Op {
		case "AND", "OR":
			l, err := ev.evalBool(x.L, bind)
			if err != nil {
				return Null, err
			}
			if x.Op == "AND" && !l {
				return Bool(false), nil
			}
			if x.Op == "OR" && l {
				return Bool(true), nil
			}
			r, err := ev.evalBool(x.R, bind)
			if err != nil {
				return Null, err
			}
			return Bool(r), nil
		case "=", "!=", "<", "<=", ">", ">=":
			l, err := ev.eval(x.L, bind)
			if err != nil {
				return Null, err
			}
			r, err := ev.eval(x.R, bind)
			if err != nil {
				return Null, err
			}
			if l.IsNull() || r.IsNull() {
				return Bool(false), nil // SQL UNKNOWN behaves as false here
			}
			return Bool(cmpSQL(x.Op, l, r)), nil
		case "+", "-", "*", "/":
			l, err := ev.eval(x.L, bind)
			if err != nil {
				return Null, err
			}
			r, err := ev.eval(x.R, bind)
			if err != nil {
				return Null, err
			}
			return arith(x.Op, l, r)
		default:
			return Null, fmt.Errorf("relational: unknown operator %q", x.Op)
		}
	case *Unary:
		switch x.Op {
		case "NOT":
			b, err := ev.evalBool(x.X, bind)
			if err != nil {
				return Null, err
			}
			return Bool(!b), nil
		case "-":
			v, err := ev.eval(x.X, bind)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			n, ok := v.Int()
			if !ok {
				return Null, fmt.Errorf("relational: unary minus on %s value", v.Kind())
			}
			return Int(-n), nil
		default:
			return Null, fmt.Errorf("relational: unknown unary %q", x.Op)
		}
	case *IsNull:
		v, err := ev.eval(x.X, bind)
		if err != nil {
			return Null, err
		}
		isNull := v.IsNull()
		if x.Negate {
			isNull = !isNull
		}
		return Bool(isNull), nil
	case *InExpr:
		v, err := ev.eval(x.X, bind)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			return Bool(x.Negate), nil
		}
		if x.Select != nil {
			set, err := ev.subquerySet(x.Select)
			if err != nil {
				return Null, err
			}
			_, found := set.get(v)
			return Bool(found != x.Negate), nil
		}
		found := false
		for _, le := range x.List {
			lv, err := ev.eval(le, bind)
			if err != nil {
				return Null, err
			}
			if eq, known := valuesEqual(v, lv); known && eq {
				found = true
				break
			}
		}
		return Bool(found != x.Negate), nil
	case *FuncCall:
		return Null, fmt.Errorf("relational: aggregate %s outside SELECT list", x.Name)
	default:
		return Null, fmt.Errorf("relational: unknown expression %T", e)
	}
}

// subquerySet evaluates an uncorrelated IN-subquery once per statement and
// memoizes the result set. This is what makes `NOT IN (SELECT id FROM
// parent)` scans linear in the child table rather than quadratic — the cost
// model behind the per-statement-trigger curves. The subquery's rows
// stream straight into a keyMap (index.go), a word-keyed entry per
// distinct integer; the joinKey normalization makes mixed int/text
// membership agree with the IN-list path's compareValues semantics.
func (ev *exprEval) subquerySet(sel *SelectStmt) (*keyMap, error) {
	if set, ok := ev.inCache[sel]; ok {
		return set, nil
	}
	set := &keyMap{}
	cs, _, err := ev.db.streamSelect(sel, ev.env, nil, func(r []Value) error {
		if len(r) != 1 {
			return fmt.Errorf("relational: IN subquery must return one column, got %d", len(r))
		}
		if !r[0].IsNull() {
			set.put(r[0], 0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n := len(cs.cols); n != 1 {
		return nil, fmt.Errorf("relational: IN subquery must return one column, got %d", n)
	}
	if ev.inCache == nil {
		ev.inCache = make(map[*SelectStmt]*keyMap)
	}
	ev.inCache[sel] = set
	return set, nil
}

func (ev *exprEval) evalBool(e Expr, bind *binding) (bool, error) {
	v, err := ev.eval(e, bind)
	if err != nil {
		return false, err
	}
	switch v.kind {
	case KindNull:
		return false, nil
	case KindInt:
		return v.i != 0, nil
	default:
		return v.s != "", nil
	}
}

func cmpSQL(op string, l, r Value) bool {
	c := compareValues(l, r)
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	default:
		return false
	}
}

func arith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null, nil
	}
	ln, lok := l.Int()
	rn, rok := r.Int()
	if !lok || !rok {
		return Null, fmt.Errorf("relational: arithmetic on non-integers (%s %s %s)", l.Kind(), op, r.Kind())
	}
	switch op {
	case "+":
		return Int(ln + rn), nil
	case "-":
		return Int(ln - rn), nil
	case "*":
		return Int(ln * rn), nil
	case "/":
		if rn == 0 {
			return Null, fmt.Errorf("relational: division by zero")
		}
		return Int(ln / rn), nil
	default:
		return Null, fmt.Errorf("relational: unknown arithmetic operator %q", op)
	}
}
