package relational

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EXPLAIN ANALYZE: instrumented execution. The statement runs for real —
// through the same compile and iterator construction as any other execution
// — but with env.an set, so buildBodyIter/buildSelectIter thread thin
// instrumented wrappers between operators and every levelIter folds its
// batched counters into a per-operator record on Close. The ordinary path
// pays nothing: env.an is nil on every non-ANALYZE execution, the wrappers
// are never constructed, and the per-operator map never exists.
//
// Per-operator actuals are keyed by the compiled structures themselves
// (*bodyCompiled for body operators, *selectCompiled for the statement-top
// operators, the DML plan slot for match access paths), so the renderer —
// which walks the same compiled tree EXPLAIN renders — finds each
// operator's record by identity, with no name matching.

// anKey addresses one operator of an analyze run: the compiled structure it
// belongs to plus its position. Non-negative positions are join levels
// (plan.levels index); negative positions are the singleton operators.
type anKey struct {
	owner any
	pos   int
}

const (
	anProject  = -1 // projection / aggregation (also the values body)
	anDistinct = -2
	anSort     = -3
	anMerge    = -4
	anUnion    = -5
	anMatch    = -6 // DML row-match access path
)

// opMetrics is one operator's actuals. An analyzed statement runs on its
// calling goroutine, so the atomics are uncontended; on this debugging path
// they cost nothing measurable, and they keep the record race-free without
// reasoning about which goroutine feeds it.
type opMetrics struct {
	rows    atomic.Int64 // rows produced
	loops   atomic.Int64 // times the operator was opened
	ns      atomic.Int64 // inclusive wall time across Open/Next/Close
	scanned atomic.Int64 // source rows visited (levelIter counter fold)
	probes  atomic.Int64 // index + range probes issued
}

// suffix renders the operator's actuals for appending to its plan line.
// Nil-safe: operators the run never instrumented render nothing.
func (m *opMetrics) suffix() string {
	if m == nil {
		return ""
	}
	var parts []string
	if l := m.loops.Load(); l > 0 {
		parts = append(parts, fmt.Sprintf("rows=%d", m.rows.Load()))
		if l > 1 {
			parts = append(parts, fmt.Sprintf("loops=%d", l))
		}
		parts = append(parts, "time="+fmtAnDur(time.Duration(m.ns.Load())))
	}
	if s := m.scanned.Load(); s > 0 {
		parts = append(parts, fmt.Sprintf("scanned=%d", s))
	}
	if p := m.probes.Load(); p > 0 {
		parts = append(parts, fmt.Sprintf("probes=%d", p))
	}
	if len(parts) == 0 {
		return " (actual rows=0)"
	}
	return " (actual " + strings.Join(parts, " ") + ")"
}

// fmtAnDur renders a duration with enough precision to be useful and few
// enough digits to be readable.
func fmtAnDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(100 * time.Nanosecond).String()
	}
	return d.String()
}

// analyzeRun collects one EXPLAIN ANALYZE execution's per-operator actuals
// and the compiled form of every SELECT that ran, keyed by AST node so the
// renderer can recurse statement → CTEs exactly as EXPLAIN does.
type analyzeRun struct {
	mu      sync.Mutex
	ops     map[anKey]*opMetrics
	selects map[*SelectStmt]*selectCompiled
}

func newAnalyzeRun() *analyzeRun {
	return &analyzeRun{
		ops:     make(map[anKey]*opMetrics),
		selects: make(map[*SelectStmt]*selectCompiled),
	}
}

// op returns the operator's record, creating it on first use.
func (an *analyzeRun) op(owner any, pos int) *opMetrics {
	k := anKey{owner, pos}
	an.mu.Lock()
	defer an.mu.Unlock()
	m := an.ops[k]
	if m == nil {
		m = &opMetrics{}
		an.ops[k] = m
	}
	return m
}

// find returns the operator's record, or nil if the operator never ran.
func (an *analyzeRun) find(owner any, pos int) *opMetrics {
	an.mu.Lock()
	defer an.mu.Unlock()
	return an.ops[anKey{owner, pos}]
}

func (an *analyzeRun) noteSelect(s *SelectStmt, cs *selectCompiled) {
	an.mu.Lock()
	an.selects[s] = cs
	an.mu.Unlock()
}

func (an *analyzeRun) selectFor(s *SelectStmt) *selectCompiled {
	an.mu.Lock()
	defer an.mu.Unlock()
	return an.selects[s]
}

// instrBind wraps a binding-space iterator, recording open count, rows
// produced, and inclusive wall time. The wrapped level also holds a direct
// anm reference for its counter fold, so scan/probe counts arrive even when
// the pipeline is abandoned mid-stream.
type instrBind struct {
	in bindIter
	m  *opMetrics
}

func (ib *instrBind) Open() error {
	ib.m.loops.Add(1)
	t0 := time.Now()
	err := ib.in.Open()
	ib.m.ns.Add(int64(time.Since(t0)))
	return err
}

func (ib *instrBind) Next() (bool, error) {
	t0 := time.Now()
	ok, err := ib.in.Next()
	ib.m.ns.Add(int64(time.Since(t0)))
	if ok {
		ib.m.rows.Add(1)
	}
	return ok, err
}

func (ib *instrBind) Close() {
	t0 := time.Now()
	ib.in.Close()
	ib.m.ns.Add(int64(time.Since(t0)))
}

// instrRow is instrBind's row-space twin.
type instrRow struct {
	in rowIter
	m  *opMetrics
}

func (ir *instrRow) Open() error {
	ir.m.loops.Add(1)
	t0 := time.Now()
	err := ir.in.Open()
	ir.m.ns.Add(int64(time.Since(t0)))
	return err
}

func (ir *instrRow) Next() ([]Value, bool, error) {
	t0 := time.Now()
	row, ok, err := ir.in.Next()
	ir.m.ns.Add(int64(time.Since(t0)))
	if ok {
		ir.m.rows.Add(1)
	}
	return row, ok, err
}

func (ir *instrRow) Close() {
	t0 := time.Now()
	ir.in.Close()
	ir.m.ns.Add(int64(time.Since(t0)))
}

// ExplainAnalyze executes a statement with per-operator instrumentation and
// returns the EXPLAIN tree annotated with actuals: rows produced, open
// count, inclusive wall time, and source rows scanned / probes issued per
// join level. The statement runs for real: a DML statement mutates the
// database and appends its redo record exactly as Exec would. Also
// reachable through the SQL path as `EXPLAIN ANALYZE <stmt>` (or the
// shorthand `ANALYZE <stmt>`) via Query.
func (db *DB) ExplainAnalyze(sql string) (string, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return "", err
	}
	switch stmt.(type) {
	case *SelectStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
	default:
		return "", fmt.Errorf("relational: EXPLAIN ANALYZE supports SELECT and DML statements, got %T", stmt)
	}
	an := newAnalyzeRun()
	base := db.Stats()
	start := time.Now()
	qt := db.traceBegin("analyze", sql)
	var rowsOut int
	switch s := stmt.(type) {
	case *SelectStmt:
		err = func() error {
			var lockStart time.Time
			if qt != nil {
				lockStart = time.Now()
			}
			db.mu.RLock()
			defer db.mu.RUnlock()
			if qt != nil {
				qt.LockWait = time.Since(lockStart)
			}
			db.stats.Statements.Add(1)
			env := newEnv(nil)
			env.an = an
			var execStart time.Time
			if qt != nil {
				execStart = time.Now()
			}
			rows, err := db.execSelect(s, env)
			if qt != nil {
				qt.Execute = time.Since(execStart)
			}
			if err != nil {
				return err
			}
			rowsOut = len(rows.Data)
			return nil
		}()
	default:
		// DML: a real autocommit execution under the writer lock, with the
		// analyze run threaded through the environment. Joins no open
		// SQL-level transaction — like an autocommit statement it waits
		// behind (rather than inside) one.
		var lsn uint64
		rowsOut, lsn, err = func() (int, uint64, error) {
			lockStart := time.Now()
			db.mu.Lock()
			db.met.lockWait.ObserveSince(lockStart)
			defer db.mu.Unlock()
			if qt != nil {
				qt.LockWait = time.Since(lockStart)
			}
			db.stats.Statements.Add(1)
			return db.runAutocommit(stmt, nil, sql, nil, qt, an)
		}()
		if err == nil {
			err = db.afterCommit(lsn, qt)
		}
		if err == nil {
			db.met.commit.ObserveSince(start)
		}
	}
	total := time.Since(start)
	db.traceFinish(qt, rowsOut, err)
	if err != nil {
		return "", err
	}
	delta := statsSub(db.Stats(), base)
	db.mu.RLock()
	defer db.mu.RUnlock()
	var b strings.Builder
	if err := db.renderAnalyzeStmt(&b, stmt, an, 0); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Execution: rows=%d time=%s\n", rowsOut, fmtAnDur(total))
	writeStatsDelta(&b, delta)
	return strings.TrimRight(b.String(), "\n"), nil
}

// dispatchExplain routes `EXPLAIN ...`, `EXPLAIN ANALYZE ...`, and
// `ANALYZE ...` statements arriving through the SQL query path. handled is
// false for everything else, and Query proceeds normally.
func (db *DB) dispatchExplain(sql string) (rows *Rows, handled bool, err error) {
	if rest, ok := cutKeyword(sql, "EXPLAIN"); ok {
		if rest2, ok2 := cutKeyword(rest, "ANALYZE"); ok2 {
			text, err := db.ExplainAnalyze(rest2)
			return planRows(text), true, err
		}
		text, err := db.Explain(rest)
		return planRows(text), true, err
	}
	if rest, ok := cutKeyword(sql, "ANALYZE"); ok {
		text, err := db.ExplainAnalyze(rest)
		return planRows(text), true, err
	}
	return nil, false, nil
}

// cutKeyword strips one leading (case-insensitive) keyword followed by
// whitespace, reporting whether it matched.
func cutKeyword(s, kw string) (string, bool) {
	t := strings.TrimLeft(s, " \t\r\n")
	if len(t) <= len(kw) || !strings.EqualFold(t[:len(kw)], kw) {
		return "", false
	}
	switch t[len(kw)] {
	case ' ', '\t', '\r', '\n':
		return strings.TrimLeft(t[len(kw)+1:], " \t\r\n"), true
	}
	return "", false
}

// planRows shapes a rendered plan as a one-column result set.
func planRows(text string) *Rows {
	rows := &Rows{Cols: []string{"plan"}}
	if text == "" {
		return rows
	}
	for _, line := range strings.Split(text, "\n") {
		rows.Data = append(rows.Data, []Value{Text(line)})
	}
	return rows
}

// renderAnalyzeStmt mirrors explainStmt, reading actuals off the run.
func (db *DB) renderAnalyzeStmt(b *strings.Builder, stmt Stmt, an *analyzeRun, depth int) error {
	switch s := stmt.(type) {
	case *SelectStmt:
		return db.renderAnalyzeSelect(b, s, an, depth)
	case *DeleteStmt:
		t := db.tables[strings.ToLower(s.Table)]
		if t == nil {
			return fmt.Errorf("relational: no table %q", s.Table)
		}
		indentLine(b, depth, fmt.Sprintf("Delete %s", t.Name))
		db.renderAnalyzeMatch(b, s.Table, t, s.Where, &s.plan, an, depth+1)
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
		db.renderAnalyzeMatch(b, s.Table, t, s.Where, &s.plan, an, depth+1)
		return nil
	case *InsertStmt:
		if s.Select != nil {
			indentLine(b, depth, fmt.Sprintf("Insert %s", s.Table))
			return db.renderAnalyzeSelect(b, s.Select, an, depth+1)
		}
		indentLine(b, depth, fmt.Sprintf("Insert %s (%d rows of values)", s.Table, len(s.Rows)))
		return nil
	default:
		indentLine(b, depth, fmt.Sprintf("%T", stmt))
		return nil
	}
}

// renderAnalyzeMatch renders the DML row-match access line with its
// actuals. The plan comes from the statement's compiled slot — the same
// matchPlanFor the execution used — so the rendered access path is the one
// that ran.
func (db *DB) renderAnalyzeMatch(b *strings.Builder, name string, t *Table, where Expr, slot **levelPlan, an *analyzeRun, depth int) {
	lp := db.matchPlanFor(slot, name, t, where)
	src := &source{name: name, table: t}
	ap := chooseAccessPlan(lp, src, 0, nil, true)
	indentLine(b, depth, levelLine(lp, src, ap)+an.find(slot, anMatch).suffix())
}

// renderAnalyzeSelect mirrors renderSelectTree over the compiled forms the
// execution recorded (an.selects), annotating each operator line. A
// sub-statement the execution never reached falls back to the predicted
// plan, unannotated.
func (db *DB) renderAnalyzeSelect(b *strings.Builder, s *SelectStmt, an *analyzeRun, depth int) error {
	cs := an.selectFor(s)
	if cs == nil {
		return db.explainSelect(b, s, newEnv(nil), depth, nil)
	}
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
		db.renderAnalyzeBody(b, bc, an, depth)
	}
	for _, cte := range s.With {
		indentLine(b, depth, fmt.Sprintf("CTE %s", cte.Name))
		if err := db.renderAnalyzeSelect(b, cte.Select, an, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// renderAnalyzeBody mirrors explainBody.
func (db *DB) renderAnalyzeBody(b *strings.Builder, bc *bodyCompiled, an *analyzeRun, depth int) {
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

// writeStatsDelta appends the non-zero engine counter movements of the
// analyzed execution. Deltas are computed against the global Stats
// snapshot, so concurrent statements can leak into them; for the debugging
// workflow ANALYZE serves, that imprecision is acceptable.
func writeStatsDelta(b *strings.Builder, d Stats) {
	fields := []struct {
		name string
		v    int64
	}{
		{"statements", d.Statements},
		{"triggerFirings", d.TriggerFirings},
		{"rowsScanned", d.RowsScanned},
		{"rowsInserted", d.RowsInserted},
		{"rowsDeleted", d.RowsDeleted},
		{"rowsUpdated", d.RowsUpdated},
		{"indexProbes", d.IndexProbes},
		{"fullScans", d.FullScans},
		{"rangeProbes", d.RangeProbes},
		{"sortPasses", d.SortPasses},
		{"rowsSorted", d.RowsSorted},
		{"hashJoinBuilds", d.HashJoinBuilds},
		{"planCacheHits", d.PlanCacheHits},
		{"planCacheMisses", d.PlanCacheMisses},
		{"internHits", d.InternHits},
		{"internMisses", d.InternMisses},
		{"snapshotsTaken", d.SnapshotsTaken},
		{"versionChainHops", d.VersionChainHops},
		{"writeConflicts", d.WriteConflicts},
		{"versionsVacuumed", d.VersionsVacuumed},
		{"pageReads", d.PageReads},
		{"pageWrites", d.PageWrites},
		{"poolHits", d.PoolHits},
		{"poolMisses", d.PoolMisses},
		{"evictions", d.Evictions},
		{"dirtyFlushes", d.DirtyFlushes},
	}
	var parts []string
	for _, f := range fields {
		if f.v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f.name, f.v))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(b, "Stats: %s\n", strings.Join(parts, " "))
	}
}
