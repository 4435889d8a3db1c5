package relational

import (
	"fmt"
	"sort"
	"strings"
)

// Volcano-style streaming execution. A SELECT body compiles into a pipeline
// of Open/Next/Close operators: binding-space iterators advance a shared
// binding through join tuples (table scan, index probe, hash join), and
// row-space iterators above them produce output rows (projection, streaming
// aggregation, distinct, union, sort). Nothing below a sort materializes.

type accessKind int

const (
	accessScan accessKind = iota
	accessIndexProbe
	accessHashJoin
	// accessOrderedProbe probes a B+tree index on an equality prefix,
	// enumerating each group in remaining-key order.
	accessOrderedProbe
	// accessRangeScan walks a B+tree index between bounds (equality prefix
	// plus an inequality window on the next key column).
	accessRangeScan
	// accessOrderedScan walks an entire B+tree index, streaming the source
	// in key order — a scan that buys sort elision.
	accessOrderedScan
	// accessSortedProbe probes a hash index and sorts each (small) bucket
	// by the wanted columns — order without maintaining a B+tree for it.
	accessSortedProbe
)

// bindIter advances a shared binding through successive join tuples.
type bindIter interface {
	Open() error
	Next() (bool, error)
	Close()
}

// oneIter emits a single empty outer tuple: the input of the first join
// level.
type oneIter struct{ done bool }

func (o *oneIter) Open() error { o.done = false; return nil }
func (o *oneIter) Next() (bool, error) {
	if o.done {
		return false, nil
	}
	o.done = true
	return true, nil
}
func (o *oneIter) Close() {}

// levelIter binds one FROM slot per input tuple: for every tuple of its
// input it enumerates the matching rows of its own source — via index
// probe, ordered probe, range scan, transient hash join, or scan — and
// yields each combination that passes the level's gated conjuncts. The
// access path is chosen at compile time (order.go) and shared with EXPLAIN.
type levelIter struct {
	db    *DB
	ev    *exprEval
	bind  *binding
	src   *source
	lp    levelPlan
	ap    accessPlan
	input bindIter

	ht map[Value][]int // transient hash table (rowids / row indexes)

	// skipCond is the gated conjunct the access path's hash probe already
	// enforces (the probe candidate's source equality); checkConds skips
	// it. Nil for non-hash access kinds, whose windows are re-checked — and
	// nil for persistent-index probes on versioned tables, where a bucket
	// entry may belong to a superseded version and the equality must be
	// re-evaluated against the visible row (mvcc.go).
	skipCond Expr

	// sn is the snapshot this pipeline's row visibility is evaluated
	// against (mvcc.go); {ts: allTS} outside transactions.
	sn snapshot

	outerLive bool
	scanPos   int
	bucket    []int
	bucketPos int

	// pgc pins the page under this level's current row when the source is
	// a paged table: reads through it are lock-free until the level
	// crosses a page boundary, and the pin releases at Close — the paged
	// form of the rowIter buffer-reuse contract (a yielded row is valid
	// until the next Next/Close).
	pgc pageCursor

	// ctr batches the level's per-row and per-probe work counters locally
	// and flushes them to the shared atomics on Close: with N concurrent
	// readers, an atomic add per scanned row turns the stats cache line
	// into a serialization point and erases the reader-parallel speedup.
	ctr levelCounters

	// anm, when non-nil, is this level's EXPLAIN ANALYZE record
	// (analyze.go); Close folds the batched counters into it before they
	// flush. Nil on every ordinary execution.
	anm *opMetrics
}

// levelCounters accumulates hot-path statistics locally during one
// pipeline execution.
type levelCounters struct {
	rowsScanned    int64
	indexProbes    int64
	fullScans      int64
	rangeProbes    int64
	hashJoinBuilds int64
}

// flush adds the batched counts to the DB's shared counters and zeroes the
// batch (Close may run more than once).
func (c *levelCounters) flush(db *DB) {
	if c.rowsScanned != 0 {
		db.stats.RowsScanned.Add(c.rowsScanned)
	}
	if c.indexProbes != 0 {
		db.stats.IndexProbes.Add(c.indexProbes)
	}
	if c.fullScans != 0 {
		db.stats.FullScans.Add(c.fullScans)
	}
	if c.rangeProbes != 0 {
		db.stats.RangeProbes.Add(c.rangeProbes)
	}
	if c.hashJoinBuilds != 0 {
		db.stats.HashJoinBuilds.Add(c.hashJoinBuilds)
	}
	*c = levelCounters{}
}

func (li *levelIter) Open() error {
	li.ht = nil
	li.outerLive = false
	li.bind.rows[li.lp.slot] = nil
	return li.input.Open()
}

func (li *levelIter) Close() {
	if li.anm != nil {
		// Fold before flush: flush zeroes the batch, so a second Close
		// (compound iterators may re-close abandoned children) adds nothing.
		li.anm.scanned.Add(li.ctr.rowsScanned)
		li.anm.probes.Add(li.ctr.indexProbes + li.ctr.rangeProbes)
	}
	li.ctr.flush(li.db)
	li.pgc.release()
	li.input.Close()
}

func (li *levelIter) Next() (bool, error) {
	for {
		if !li.outerLive {
			ok, err := li.input.Next()
			if err != nil || !ok {
				li.bind.rows[li.lp.slot] = nil
				return false, err
			}
			li.outerLive = true
			if err := li.startInner(); err != nil {
				return false, err
			}
		}
		ok, err := li.advanceInner()
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		li.outerLive = false
	}
}

// startInner begins enumerating the level's own source for the current
// input tuple.
func (li *levelIter) startInner() error {
	switch li.ap.kind {
	case accessIndexProbe:
		li.ctr.indexProbes++
		v, err := li.ev.eval(li.ap.probe.expr, li.bind)
		if err != nil {
			return err
		}
		li.bucket = li.ap.idx.probe(v)
		li.bucketPos = 0
	case accessHashJoin:
		if li.ht == nil {
			if err := li.buildHash(); err != nil {
				return err
			}
		}
		v, err := li.ev.eval(li.ap.probe.expr, li.bind)
		if err != nil {
			return err
		}
		if v.IsNull() {
			li.bucket = nil
		} else {
			li.bucket = li.ht[v.symKey(li.db.intern)]
		}
		li.bucketPos = 0
	case accessOrderedProbe, accessRangeScan, accessOrderedScan:
		bucket, err := li.orderedBucket()
		if err != nil {
			return err
		}
		li.bucket = bucket
		li.bucketPos = 0
	case accessSortedProbe:
		li.ctr.indexProbes++
		v, err := li.ev.eval(li.ap.probe.expr, li.bind)
		if err != nil {
			return err
		}
		li.bucket = append(li.bucket[:0], li.ap.idx.probe(v)...)
		li.bucketPos = 0
		t := li.src.table
		if t.vers > 0 {
			// Versioned table: drop entries with no visible row, then sort
			// by the visible versions' values — the in-place row may carry
			// a foreign uncommitted write.
			kept := li.bucket[:0]
			for _, rid := range li.bucket {
				if t.visibleRow(rid, li.sn) != nil {
					kept = append(kept, rid)
				}
			}
			li.bucket = kept
			sort.SliceStable(li.bucket, func(a, b int) bool {
				ra := t.visibleRow(li.bucket[a], li.sn)
				rb := t.visibleRow(li.bucket[b], li.sn)
				return li.lessByInner(ra, rb, a, b)
			})
			return nil
		}
		sort.SliceStable(li.bucket, func(a, b int) bool {
			ra, rb := t.Row(li.bucket[a]), t.Row(li.bucket[b])
			return li.lessByInner(ra, rb, a, b)
		})
	default:
		li.ctr.fullScans++
		li.scanPos = 0
	}
	return nil
}

// lessByInner compares two bucket rows by the access path's innerOrder
// terms, tiebreaking on bucket position to reproduce the stable sort's
// tie order.
func (li *levelIter) lessByInner(ra, rb []Value, a, b int) bool {
	for _, ot := range li.ap.innerOrder {
		c := compareValues(ra[ot.col], rb[ot.col])
		if c == 0 {
			continue
		}
		if ot.desc {
			return c > 0
		}
		return c < 0
	}
	return li.bucket[a] < li.bucket[b]
}

// orderedBucket walks the level's B+tree index for the current input
// tuple, collecting matching rowids in key order.
func (li *levelIter) orderedBucket() ([]int, error) {
	return orderedBucketFor(&li.ctr, li.ev, &li.ap, li.src.table, li.bind, li.sn, li.bucket[:0])
}

// orderedBucketFor evaluates an ordered access path's prefix and bounds
// against the current binding and walks the B+tree window. A NULL prefix or
// bound value matches nothing (SQL comparison semantics). A free function —
// not a levelIter method — so the DML path can call it without building an
// iterator (which would force its stack-allocated binding to escape). The
// prefix array and bounds stay on the stack: a range probe per outer row
// allocates nothing beyond the caller's reused bucket.
func orderedBucketFor(ctr *levelCounters, ev *exprEval, ap *accessPlan, t *Table, bind *binding, sn snapshot, buf []int) ([]int, error) {
	// Deletions only tombstone B+tree entries; readers skip entries whose
	// row is gone. Compaction happens at transaction commit (txn.go): this
	// path now runs under the shared lock, where rebuilding the tree would
	// race with other readers.
	var parr [btreeMaxCols]Value
	prefix := parr[:len(ap.eqPrefix)]
	for i, c := range ap.eqPrefix {
		v, err := ev.eval(c.expr, bind)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			return nil, nil
		}
		prefix[i] = v
	}
	var lo, hi rangeBound
	if ap.lo != nil {
		v, err := ev.eval(ap.lo.expr, bind)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			return nil, nil
		}
		lo = rangeBound{val: v, incl: ap.lo.op == ">=", set: true}
	}
	if ap.hi != nil {
		v, err := ev.eval(ap.hi.expr, bind)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			return nil, nil
		}
		hi = rangeBound{val: v, incl: ap.hi.op == "<=", set: true}
	}
	switch ap.kind {
	case accessRangeScan:
		ctr.rangeProbes++
	case accessOrderedScan:
		ctr.fullScans++
	default:
		ctr.indexProbes++
	}
	// visKeep is nil on single-version tables (the common case): the walk
	// takes the zero-overhead path. On versioned tables it both hides
	// entries whose visible row doesn't carry the entry's key (superseded
	// versions, uncommitted foreign writes) and dedups rows indexed under
	// old and new keys at once.
	return ap.oidx.scanRangeVis(prefix, lo, hi, ap.desc, buf, t.visKeep(ap.oidx, sn)), nil
}

// buildHash drains the level's source once into a transient hash table on
// the probe column. Keys are symKey-normalized Values — interned text keys
// on its symbol, so a TEXT-equality join hashes 8 fixed bytes per row — and
// hash equality matches SQL equality across the int/string comparison the
// engine supports while probes pay a struct hash, not interface hashing or
// string formatting.
func (li *levelIter) buildHash() error {
	li.ht = make(map[Value][]int)
	it := li.db.intern
	ci := li.src.columnIndex(li.ap.probe.col)
	if ci < 0 {
		return fmt.Errorf("relational: source %s has no column %q", li.src.name, li.ap.probe.col)
	}
	if t := li.src.table; t != nil {
		if t.pg != nil {
			// Local cursor: the build drains the whole table here, while
			// li.pgc stays on the probe side's position.
			var c pageCursor
			defer c.release()
			for rid := range t.rows {
				row := c.visibleAt(t, rid, li.sn)
				if row == nil || row[ci].IsNull() {
					continue
				}
				li.ctr.rowsScanned++
				k := row[ci].symKey(it)
				li.ht[k] = append(li.ht[k], rid)
			}
			li.ctr.hashJoinBuilds++
			return nil
		}
		for rid, row := range t.rows {
			if t.vers > 0 {
				row = t.visibleRow(rid, li.sn)
			}
			if row == nil || row[ci].IsNull() {
				continue
			}
			li.ctr.rowsScanned++
			k := row[ci].symKey(it)
			li.ht[k] = append(li.ht[k], rid)
		}
	} else {
		for i, row := range li.src.rows.Data {
			if row[ci].IsNull() {
				continue
			}
			li.ctr.rowsScanned++
			k := row[ci].symKey(it)
			li.ht[k] = append(li.ht[k], i)
		}
	}
	li.ctr.hashJoinBuilds++
	return nil
}

// advanceInner yields the next row of the level's own source that passes
// the gated conjuncts, or reports exhaustion for the current input tuple.
func (li *levelIter) advanceInner() (bool, error) {
	for {
		var row []Value
		switch li.ap.kind {
		case accessIndexProbe, accessHashJoin, accessOrderedProbe, accessRangeScan, accessOrderedScan, accessSortedProbe:
			if li.bucketPos >= len(li.bucket) {
				return false, nil
			}
			rid := li.bucket[li.bucketPos]
			li.bucketPos++
			if t := li.src.table; t != nil {
				if t.pg != nil {
					row = li.pgc.visibleAt(t, rid, li.sn)
				} else if t.vers == 0 {
					row = t.Row(rid)
				} else {
					row = t.visibleRow(rid, li.sn)
				}
			} else {
				row = li.src.rows.Data[rid]
			}
			if row == nil {
				continue
			}
		default:
			if t := li.src.table; t != nil {
				end := len(t.rows)
				if t.pg != nil {
					row = nil
					for li.scanPos < end {
						r := li.pgc.visibleAt(t, li.scanPos, li.sn)
						li.scanPos++
						if r != nil {
							row = r
							break
						}
					}
					if row == nil {
						return false, nil
					}
				} else if t.vers == 0 {
					for li.scanPos < end && t.rows[li.scanPos] == nil {
						li.scanPos++
					}
					if li.scanPos >= end {
						return false, nil
					}
					row = t.rows[li.scanPos]
					li.scanPos++
				} else {
					row = nil
					for li.scanPos < end {
						row = t.visibleRow(li.scanPos, li.sn)
						li.scanPos++
						if row != nil {
							break
						}
					}
					if row == nil {
						return false, nil
					}
				}
			} else {
				if li.scanPos >= len(li.src.rows.Data) {
					return false, nil
				}
				row = li.src.rows.Data[li.scanPos]
				li.scanPos++
			}
		}
		li.ctr.rowsScanned++
		li.bind.rows[li.lp.slot] = row
		ok, err := li.checkConds()
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
}

func (li *levelIter) checkConds() (bool, error) {
	for _, c := range li.lp.conds {
		if c == li.skipCond {
			// Already enforced by the hash-keyed probe: bucket membership
			// coincides with SQL equality (symKey), and NULL probe values
			// yield no bucket.
			continue
		}
		ok, err := li.ev.evalBool(c, li.bind)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// ---- row-space iterators ----

// rowIter produces output rows.
//
// Buffer-reuse contract: the slice returned by Next is valid only until the
// next Next or Close call on the same iterator — producers overwrite one
// per-iterator buffer instead of allocating per row. Consumers that retain
// rows (materialization, sorting, merge heads) copy them; streaming
// consumers read and move on, which is what makes the conventional-path
// pipeline allocation-free per row.
type rowIter interface {
	Open() error
	Next() ([]Value, bool, error)
	Close()
}

// valuesIter evaluates a FROM-less select list once.
type valuesIter struct {
	ev    *exprEval
	exprs []SelectExpr
	buf   []Value
	done  bool
}

func (v *valuesIter) Open() error { v.done = false; return nil }
func (v *valuesIter) Close()      {}
func (v *valuesIter) Next() ([]Value, bool, error) {
	if v.done {
		return nil, false, nil
	}
	v.done = true
	if cap(v.buf) < len(v.exprs) {
		v.buf = make([]Value, len(v.exprs))
	}
	row := v.buf[:len(v.exprs)]
	for i, se := range v.exprs {
		val, err := v.ev.eval(se.Expr, nil)
		if err != nil {
			return nil, false, err
		}
		row[i] = val
	}
	return row, true, nil
}

// projectIter evaluates the select list over each join tuple into one
// reused output buffer (see the rowIter contract) — the per-row make that
// used to dominate scan allocations is gone.
type projectIter struct {
	ev    *exprEval
	sel   *SimpleSelect
	bind  *binding
	input bindIter
	buf   []Value
}

func (p *projectIter) Open() error { return p.input.Open() }
func (p *projectIter) Close()      { p.input.Close() }
func (p *projectIter) Next() ([]Value, bool, error) {
	ok, err := p.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	if p.sel.Star {
		row := p.buf[:0]
		for i := range p.bind.srcs {
			row = append(row, p.bind.rows[i]...)
		}
		p.buf = row
		return row, true, nil
	}
	if cap(p.buf) < len(p.sel.Exprs) {
		p.buf = make([]Value, len(p.sel.Exprs))
	}
	row := p.buf[:len(p.sel.Exprs)]
	for i, se := range p.sel.Exprs {
		v, err := p.ev.eval(se.Expr, p.bind)
		if err != nil {
			return nil, false, err
		}
		row[i] = v
	}
	return row, true, nil
}

// aggIter folds the whole input through the aggregate accumulators and
// emits a single row — streaming aggregation, nothing buffered.
type aggIter struct {
	ev    *exprEval
	sel   *SimpleSelect
	bind  *binding
	input bindIter
	buf   []Value
	done  bool
}

func (a *aggIter) Open() error { a.done = false; return a.input.Open() }
func (a *aggIter) Close()      { a.input.Close() }
func (a *aggIter) Next() ([]Value, bool, error) {
	if a.done {
		return nil, false, nil
	}
	a.done = true
	state := make([]*aggAccumulator, len(a.sel.Exprs))
	for {
		ok, err := a.input.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		for i, se := range a.sel.Exprs {
			if state[i] == nil {
				state[i] = &aggAccumulator{}
			}
			if err := state[i].feed(a.ev, se.Expr, a.bind); err != nil {
				return nil, false, err
			}
		}
	}
	if cap(a.buf) < len(a.sel.Exprs) {
		a.buf = make([]Value, len(a.sel.Exprs))
	}
	row := a.buf[:len(a.sel.Exprs)]
	for i, se := range a.sel.Exprs {
		if state[i] == nil {
			state[i] = &aggAccumulator{}
		}
		row[i] = state[i].result(a.ev, se.Expr)
	}
	return row, true, nil
}

// distinctIter streams the first occurrence of each distinct row. Keys are
// the tagged byte encoding of the row built in a reused buffer — the
// map[string] lookup on a []byte conversion does not allocate, so duplicate
// rows cost no allocation and only the first occurrence pays one key copy.
// Interned text contributes its ≤6-byte symbol encoding instead of its
// string bytes (appendValueKeySym), shrinking both the key build and the
// retained first-occurrence copies on TEXT-heavy DISTINCTs.
type distinctIter struct {
	input rowIter
	it    *internTable
	seen  map[string]bool
	kbuf  []byte
}

func (d *distinctIter) Open() error {
	d.seen = make(map[string]bool)
	return d.input.Open()
}
func (d *distinctIter) Close() { d.input.Close() }
func (d *distinctIter) Next() ([]Value, bool, error) {
	for {
		row, ok, err := d.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		d.kbuf = appendRowKeySym(d.kbuf[:0], row, d.it)
		if d.seen[string(d.kbuf)] {
			continue
		}
		d.seen[string(d.kbuf)] = true
		return row, true, nil
	}
}

// unionIter concatenates its branch streams (UNION ALL).
type unionIter struct {
	parts []rowIter
	cur   int
}

func (u *unionIter) Open() error {
	u.cur = 0
	if len(u.parts) == 0 {
		return nil
	}
	return u.parts[0].Open()
}
func (u *unionIter) Close() {
	for i := u.cur; i < len(u.parts); i++ {
		u.parts[i].Close()
	}
}
func (u *unionIter) Next() ([]Value, bool, error) {
	for u.cur < len(u.parts) {
		row, ok, err := u.parts[u.cur].Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		u.parts[u.cur].Close()
		u.cur++
		if u.cur < len(u.parts) {
			if err := u.parts[u.cur].Open(); err != nil {
				return nil, false, err
			}
		}
	}
	return nil, false, nil
}

// sortSpec is one resolved ORDER BY key: an output column position.
type sortSpec struct {
	col  int
	desc bool
}

// sortScratch is the reusable backing store of one blocking sort: every
// buffered row's values live contiguously in arena, rows holds the slice
// headers the sort permutes, and offs records row boundaries during the
// fill (arena may relocate as it grows, so headers are cut only after the
// input is drained). Instances recycle through DB.sortPool, so a steady
// stream of sorted queries reaches a high-water mark once and then copies
// rows without allocating.
type sortScratch struct {
	arena []Value
	offs  []int
	rows  [][]Value
}

// sortIter materializes its input and emits it in key order. Sorting is the
// only blocking operator in the pipeline; when the input already streams in
// key order the compiler elides this operator entirely (order.go).
type sortIter struct {
	db      *DB
	input   rowIter
	keys    []sortSpec
	scratch *sortScratch
	buf     [][]Value
	pos     int
}

func (s *sortIter) Open() error {
	s.buf = nil
	s.pos = 0
	if s.scratch == nil {
		if s.db != nil {
			s.scratch, _ = s.db.sortPool.Get().(*sortScratch)
		}
		if s.scratch == nil {
			s.scratch = &sortScratch{}
		}
	}
	sc := s.scratch
	sc.arena = sc.arena[:0]
	sc.offs = sc.offs[:0]
	if err := s.input.Open(); err != nil {
		return err
	}
	for {
		row, ok, err := s.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		// The producer reuses its row buffer (rowIter contract); a blocking
		// sort retains every row, so it copies each one — into the shared
		// arena, not a per-row allocation.
		sc.offs = append(sc.offs, len(sc.arena))
		sc.arena = append(sc.arena, row...)
	}
	sc.offs = append(sc.offs, len(sc.arena))
	sc.rows = sc.rows[:0]
	for i := 0; i+1 < len(sc.offs); i++ {
		sc.rows = append(sc.rows, sc.arena[sc.offs[i]:sc.offs[i+1]:sc.offs[i+1]])
	}
	s.buf = sc.rows
	if s.db != nil {
		s.db.stats.SortPasses.Add(1)
		s.db.stats.RowsSorted.Add(int64(len(s.buf)))
	}
	sort.SliceStable(s.buf, func(a, b int) bool {
		return compareRows(s.buf[a], s.buf[b], s.keys) < 0
	})
	return nil
}

// Close returns the scratch to the pool: rows handed out by Next point into
// its arena, which the rowIter contract already declares invalid past Close.
func (s *sortIter) Close() {
	if s.scratch != nil && s.db != nil {
		s.db.sortPool.Put(s.scratch)
	}
	s.scratch = nil
	s.buf = nil
	s.input.Close()
}
func (s *sortIter) Next() ([]Value, bool, error) {
	if s.pos >= len(s.buf) {
		return nil, false, nil
	}
	row := s.buf[s.pos]
	s.pos++
	return row, true, nil
}

// compareRows orders two rows under the sort keys.
func compareRows(a, b []Value, keys []sortSpec) int {
	for _, k := range keys {
		c := compareValues(a[k.col], b[k.col])
		if c == 0 {
			continue
		}
		if k.desc {
			return -c
		}
		return c
	}
	return 0
}

// mergeIter merges UNION ALL branches that each already stream in key
// order, emitting the globally sorted sequence without materializing.
// Ties prefer the earliest branch, then that branch's stream order — the
// sequence a stable sort of the concatenated branches would produce,
// modulo each branch's own resolution of key ties (see btree.go: an index
// walk consuming only a prefix of its key orders ties by the trailing
// columns, where the sorted path would keep heap order).
type mergeIter struct {
	parts []rowIter
	keys  []sortSpec
	heads [][]Value
	// hbufs are per-branch copies of each head row (branch iterators reuse
	// their buffers, and a head outlives its branch's next Next call); out
	// is the returned row's buffer, copied before the winning branch
	// advances over it.
	hbufs [][]Value
	out   []Value
}

// setHead copies a branch's current row into its per-branch buffer.
func (m *mergeIter) setHead(i int, row []Value) {
	if cap(m.hbufs[i]) < len(row) {
		m.hbufs[i] = make([]Value, len(row))
	}
	m.hbufs[i] = m.hbufs[i][:len(row)]
	copy(m.hbufs[i], row)
	m.heads[i] = m.hbufs[i]
}

func (m *mergeIter) Open() error {
	m.heads = make([][]Value, len(m.parts))
	m.hbufs = make([][]Value, len(m.parts))
	for i, p := range m.parts {
		if err := p.Open(); err != nil {
			return err
		}
		row, ok, err := p.Next()
		if err != nil {
			return err
		}
		if ok {
			m.setHead(i, row)
		}
	}
	return nil
}

func (m *mergeIter) Close() {
	for _, p := range m.parts {
		p.Close()
	}
}

func (m *mergeIter) Next() ([]Value, bool, error) {
	best := -1
	for i, h := range m.heads {
		if h == nil {
			continue
		}
		if best < 0 || compareRows(h, m.heads[best], m.keys) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	head := m.heads[best]
	if cap(m.out) < len(head) {
		m.out = make([]Value, len(head))
	}
	m.out = m.out[:len(head)]
	copy(m.out, head)
	next, ok, err := m.parts[best].Next()
	if err != nil {
		return nil, false, err
	}
	if ok {
		m.setHead(best, next)
	} else {
		m.heads[best] = nil
	}
	return m.out, true, nil
}

// resolveOrderKeys maps ORDER BY expressions (column names or 1-based
// positions) onto output column indexes.
func resolveOrderKeys(orderBy []OrderKey, cols []string) ([]sortSpec, error) {
	keys := make([]sortSpec, len(orderBy))
	for i, k := range orderBy {
		switch e := k.Expr.(type) {
		case *ColumnRef:
			found := -1
			for ci, c := range cols {
				if strings.EqualFold(c, e.Name) {
					found = ci
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("relational: ORDER BY column %q not in result", e.Name)
			}
			keys[i] = sortSpec{col: found, desc: k.Desc}
		case *Literal:
			n, ok := e.Value.Int()
			if !ok || n < 1 || int(n) > len(cols) {
				return nil, fmt.Errorf("relational: bad positional ORDER BY")
			}
			keys[i] = sortSpec{col: int(n) - 1, desc: k.Desc}
		default:
			return nil, fmt.Errorf("relational: ORDER BY supports column references only")
		}
	}
	return keys, nil
}

// ---- pipeline assembly ----

// resolveSources maps FROM items to base tables or CTE result sets. Caller
// holds db.mu.
func (db *DB) resolveSources(s *SimpleSelect, env *execEnv) ([]*source, error) {
	srcs := make([]*source, len(s.From))
	for i, f := range s.From {
		if rows, ok := env.lookupCTE(f.Table); ok {
			srcs[i] = &source{name: f.Name(), rows: rows}
			continue
		}
		t := db.tables[strings.ToLower(f.Table)]
		if t == nil {
			return nil, fmt.Errorf("relational: no table or CTE %q", f.Table)
		}
		srcs[i] = &source{name: f.Name(), table: t}
	}
	return srcs, nil
}

// outputColumns names the result columns of a select body.
func outputColumns(s *SimpleSelect, srcs []*source) []string {
	var cols []string
	if s.Star {
		for _, src := range srcs {
			cols = append(cols, src.columns()...)
		}
		return cols
	}
	for i, se := range s.Exprs {
		switch {
		case se.Alias != "":
			cols = append(cols, se.Alias)
		default:
			if cr, ok := se.Expr.(*ColumnRef); ok {
				cols = append(cols, cr.Name)
			} else {
				cols = append(cols, fmt.Sprintf("c%d", i+1))
			}
		}
	}
	return cols
}

// bodyCompiled is one SELECT body's compiled form: resolved sources, the
// logical plan, the physical access path per level, and whether the body's
// stream satisfies the requested keys. EXPLAIN renders it; the executor
// builds iterators from it — one decision, two consumers.
type bodyCompiled struct {
	sel       *SimpleSelect
	srcs      []*source
	plan      *simplePlan
	access    []accessPlan
	aggregate bool
	satisfied bool
	// pinned: the stream's order tuple is unique per row (order.go).
	pinned bool
}

// compileSimple compiles one SELECT body against keys it would like the
// stream ordered by (possibly none). srcs may carry pre-resolved sources
// (nil to resolve here). Caller holds db.mu.
func (db *DB) compileSimple(s *SimpleSelect, env *execEnv, keys []sortSpec, srcs []*source) (*bodyCompiled, error) {
	if srcs == nil {
		var err error
		if srcs, err = db.resolveSources(s, env); err != nil {
			return nil, err
		}
	}
	// Validate column references eagerly so errors surface even when no
	// rows flow through the join.
	if !s.Star {
		for _, se := range s.Exprs {
			if err := validateRefs(se.Expr, srcs); err != nil {
				return nil, err
			}
		}
	}
	if s.Where != nil {
		if err := validateRefs(s.Where, srcs); err != nil {
			return nil, err
		}
	}
	bc := &bodyCompiled{sel: s, srcs: srcs}
	if !s.Star {
		for _, se := range s.Exprs {
			if containsAggregate(se.Expr) {
				bc.aggregate = true
				break
			}
		}
	}
	if len(srcs) == 0 || bc.aggregate {
		// A single output row satisfies any order and is trivially unique.
		bc.satisfied = true
		bc.pinned = true
		if len(srcs) > 0 {
			bc.plan = db.planFor(s, srcs)
			bc.access, _, _ = db.planPhysical(bc.plan, srcs, nil)
		}
		return bc, nil
	}
	bc.plan = db.planFor(s, srcs)
	want, mappable := mapWantTerms(s, srcs, keys)
	if !mappable {
		bc.access, _, _ = db.planPhysical(bc.plan, srcs, nil)
		return bc, nil
	}
	bc.access, bc.satisfied, bc.pinned = db.planPhysical(bc.plan, srcs, want)
	return bc, nil
}

// buildBodyIter turns a compiled body into its streaming iterator.
func (db *DB) buildBodyIter(bc *bodyCompiled, env *execEnv) rowIter {
	s := bc.sel
	ev := newEval(db, env)
	an := env.an
	if len(bc.srcs) == 0 {
		var it rowIter = &valuesIter{ev: ev, exprs: s.Exprs}
		if an != nil {
			it = &instrRow{in: it, m: an.op(bc, anProject)}
		}
		if s.Distinct {
			it = &distinctIter{input: it, it: db.intern}
			if an != nil {
				it = &instrRow{in: it, m: an.op(bc, anDistinct)}
			}
		}
		return it
	}
	bind := &binding{
		names: make([]string, len(bc.srcs)),
		srcs:  bc.srcs,
		rows:  make([][]Value, len(bc.srcs)),
	}
	for i, src := range bc.srcs {
		bind.names[i] = strings.ToLower(src.name)
	}
	var chain bindIter = &oneIter{}
	for pos, lp := range bc.plan.levels {
		li := &levelIter{
			db:    db,
			ev:    ev,
			bind:  bind,
			src:   bc.srcs[lp.slot],
			lp:    lp,
			ap:    bc.access[pos],
			input: chain,
			sn:    env.snap,
		}
		switch li.ap.kind {
		case accessHashJoin:
			li.skipCond = li.ap.probe.cond
		case accessIndexProbe:
			// A persistent hash index on a versioned table may hold
			// entries for superseded versions; keep the probe conjunct so
			// checkConds re-validates equality against the visible row.
			if li.src.table == nil || li.src.table.vers == 0 {
				li.skipCond = li.ap.probe.cond
			}
		}
		chain = li
		if an != nil {
			m := an.op(bc, pos)
			li.anm = m
			chain = &instrBind{in: li, m: m}
		}
	}
	var it rowIter
	if bc.aggregate {
		it = &aggIter{ev: ev, sel: s, bind: bind, input: chain}
	} else {
		it = &projectIter{ev: ev, sel: s, bind: bind, input: chain}
	}
	if an != nil {
		it = &instrRow{in: it, m: an.op(bc, anProject)}
	}
	if s.Distinct {
		// distinctIter streams first occurrences, preserving input order.
		it = &distinctIter{input: it, it: db.intern}
		if an != nil {
			it = &instrRow{in: it, m: an.op(bc, anDistinct)}
		}
	}
	return it
}

// selectCompiled is a full SELECT's compiled form (CTEs are the caller's
// concern — materialized rows or EXPLAIN stubs live in env).
type selectCompiled struct {
	bodies []*bodyCompiled
	cols   []string
	// keys are the resolved ORDER BY positions (explicit, or the advisory
	// want propagated from an enclosing statement).
	keys     []sortSpec
	explicit bool // statement has its own ORDER BY
	// elide reports that every branch streams in key order already: no
	// sort runs — a single branch passes through, branches merge.
	elide bool
	// singleRow predicts the statement yields at most one row (aggregate
	// body, no FROM, or every level pinned by a unique-column equality).
	singleRow bool
}

// compileSelect compiles a SELECT whose CTEs are already bound in env.
// extWant is the advisory order an enclosing statement would like (CTE
// materialization); it steers access paths but never adds a sort.
func (db *DB) compileSelect(s *SelectStmt, env *execEnv, extWant []OrderKey) (*selectCompiled, error) {
	cs := &selectCompiled{explicit: len(s.OrderBy) > 0}
	orderKeys := s.OrderBy
	if !cs.explicit {
		orderKeys = extWant
	}
	// Keys resolve against the first branch's output columns.
	srcs0, err := db.resolveSources(s.Body[0], env)
	if err != nil {
		return nil, err
	}
	cs.cols = outputColumns(s.Body[0], srcs0)
	if len(orderKeys) > 0 {
		keys, err := resolveOrderKeys(orderKeys, cs.cols)
		if err != nil {
			if cs.explicit {
				return nil, err
			}
			keys = nil // unresolvable advisory want: ignore
		}
		cs.keys = keys
	}
	for i, body := range s.Body {
		if i > 0 {
			srcs0 = nil
		}
		bc, err := db.compileSimple(body, env, cs.keys, srcs0)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			if bcols := outputColumns(body, bc.srcs); len(bcols) != len(cs.cols) {
				return nil, fmt.Errorf("relational: UNION ALL branches have %d vs %d columns", len(cs.cols), len(bcols))
			}
		}
		cs.bodies = append(cs.bodies, bc)
	}
	if len(cs.keys) > 0 {
		cs.elide = true
		for _, bc := range cs.bodies {
			if !bc.satisfied {
				cs.elide = false
				break
			}
		}
	}
	if len(cs.bodies) == 1 {
		bc := cs.bodies[0]
		cs.singleRow = bc.aggregate || len(bc.srcs) == 0
		if !cs.singleRow && bc.plan != nil {
			cs.singleRow = true
			for _, lp := range bc.plan.levels {
				if !singleRowLevel(lp, bc.srcs[lp.slot]) {
					cs.singleRow = false
					break
				}
			}
		}
	}
	return cs, nil
}

// achievedOrder reports the output order the compiled statement's rows will
// stream (and so materialize) in, plus the output columns known constant —
// the properties recorded on CTE Rows for consumers to inherit.
func (cs *selectCompiled) achievedOrder() (order []sortSpec, consts []int, unique bool) {
	// Constants matter only next to a recorded order (consumers skip them
	// between order terms); keyless results skip the computation.
	if len(cs.bodies) == 1 && len(cs.keys) > 0 {
		consts = cs.bodies[0].outputConsts()
	}
	satisfied := cs.explicit || (len(cs.bodies) == 1 && len(cs.keys) > 0 && cs.elide)
	if !satisfied {
		return nil, consts, false
	}
	constSet := make(map[int]bool, len(consts))
	for _, c := range consts {
		constSet[c] = true
	}
	for _, k := range cs.keys {
		if !constSet[k.col] {
			order = append(order, k)
		}
	}
	// The order tuple is unique per row only for a single elided branch
	// whose every level is pinned; a sorted or merged stream gives no such
	// guarantee.
	unique = len(cs.bodies) == 1 && cs.elide && (cs.bodies[0].pinned || cs.singleRow)
	return order, consts, unique
}

// outputConsts lists output positions that hold one value across all rows:
// literal select expressions and columns pinned by an uncorrelated equality
// or constant in the source CTE.
func (bc *bodyCompiled) outputConsts() []int {
	if bc.plan == nil && len(bc.srcs) > 0 {
		return nil
	}
	var binds map[[2]int]bool
	if bc.plan != nil {
		binds = constBindCols(bc.plan, bc.srcs)
	}
	var out []int
	if bc.sel.Star {
		pos := 0
		for si, src := range bc.srcs {
			for ci := range src.columns() {
				if binds[[2]int{si, ci}] {
					out = append(out, pos)
				}
				pos++
			}
		}
		return out
	}
	for i, se := range bc.sel.Exprs {
		switch e := se.Expr.(type) {
		case *Literal, *Param:
			out = append(out, i)
		case *ColumnRef:
			slot := resolveSlot(e, bc.srcs)
			if slot < 0 {
				continue
			}
			if ci := bc.srcs[slot].columnIndex(e.Name); ci >= 0 && binds[[2]int{slot, ci}] {
				out = append(out, i)
			}
		}
	}
	return out
}

// buildSelectIter compiles a full SELECT (whose CTEs are already
// materialized in env) into its top-level row iterator, reporting the
// achieved output order for Rows annotation.
func (db *DB) buildSelectIter(s *SelectStmt, env *execEnv, extWant []OrderKey) (rowIter, *selectCompiled, error) {
	cs, err := db.compileSelect(s, env, extWant)
	if err != nil {
		return nil, nil, err
	}
	an := env.an
	if an != nil {
		an.noteSelect(s, cs)
	}
	parts := make([]rowIter, len(cs.bodies))
	for i, bc := range cs.bodies {
		parts[i] = db.buildBodyIter(bc, env)
	}
	var top rowIter
	switch {
	case cs.explicit && cs.elide && len(parts) > 1:
		top = &mergeIter{parts: parts, keys: cs.keys}
		if an != nil {
			top = &instrRow{in: top, m: an.op(cs, anMerge)}
		}
	case len(parts) == 1:
		top = parts[0]
	default:
		top = &unionIter{parts: parts}
		if an != nil {
			top = &instrRow{in: top, m: an.op(cs, anUnion)}
		}
	}
	if cs.explicit && !cs.elide {
		top = &sortIter{db: db, input: top, keys: cs.keys}
		if an != nil {
			top = &instrRow{in: top, m: an.op(cs, anSort)}
		}
	}
	return top, cs, nil
}
