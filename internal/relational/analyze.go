package relational

import (
	"fmt"
	"reflect"
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
// operators, the DML plan slot for match access paths), so the one plan
// renderer (explain.go), handed this run, finds each operator's record by
// identity, with no name matching; handed no run, it prints plain EXPLAIN.

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

// find returns the operator's record, or nil if the operator never ran or
// there is no run (plain EXPLAIN).
func (an *analyzeRun) find(owner any, pos int) *opMetrics {
	if an == nil {
		return nil
	}
	an.mu.Lock()
	defer an.mu.Unlock()
	return an.ops[anKey{owner, pos}]
}

func (an *analyzeRun) noteSelect(s *SelectStmt, cs *selectCompiled) {
	an.mu.Lock()
	an.selects[s] = cs
	an.mu.Unlock()
}

// selectFor returns the compiled form the run executed for s, or nil if s
// never ran or there is no run.
func (an *analyzeRun) selectFor(s *SelectStmt) *selectCompiled {
	if an == nil {
		return nil
	}
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
// database and appends its redo record exactly as Exec would. The tree is
// rendered by the same functions as Explain, so with the actuals and the
// footer stripped the two print the same plan. This method is the only way
// to run ANALYZE: the SQL path rejects `EXPLAIN`/`ANALYZE` prefixes.
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
		// analyze run threaded through the environment. Like any autocommit
		// statement it waits behind (rather than inside) an open
		// transaction's write intents.
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
	if err := db.renderStmt(&b, stmt, an, 0); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Execution: rows=%d time=%s\n", rowsOut, fmtAnDur(total))
	writeStatsDelta(&b, delta)
	return strings.TrimRight(b.String(), "\n"), nil
}

// writeStatsDelta appends the non-zero engine counter movements of the
// analyzed execution, named after the Stats fields (first letter lower-cased)
// in declaration order. Deltas are computed against the global Stats
// snapshot, so concurrent statements can leak into them; for the debugging
// workflow ANALYZE serves, that imprecision is acceptable.
func writeStatsDelta(b *strings.Builder, d Stats) {
	v := reflect.ValueOf(d)
	var parts []string
	for i := 0; i < v.NumField(); i++ {
		if n := v.Field(i).Int(); n != 0 {
			name := v.Type().Field(i).Name
			parts = append(parts, fmt.Sprintf("%s%s=%d", strings.ToLower(name[:1]), name[1:], n))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(b, "Stats: %s\n", strings.Join(parts, " "))
	}
}
