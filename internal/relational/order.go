package relational

import "strings"

// Interesting-order planning. The executor's pipelines can produce rows in
// a known order without sorting: an ordered-index walk streams a relation
// in key order, a nested-loop level refines its outer's order with its own
// per-group enumeration order, and a scan over a CTE materialized in a
// known order inherits it. This file decides, per SELECT body, the physical
// access path of every join level — preferring paths whose order helps the
// enclosing ORDER BY — and reports whether the resulting stream already
// satisfies the requested keys, in which case the blocking sortIter is
// elided (per branch; a UNION ALL of satisfied branches merges instead).
// Both the executor and EXPLAIN consume these decisions, so the displayed
// plan is the executed plan.

// orderTerm is one element of a stream's ordering, in binding coordinates:
// the FROM slot and the column within that slot's source.
type orderTerm struct {
	slot, col int
	desc      bool
}

// wantTerm is one desired ORDER BY key mapped into binding coordinates.
// Constant keys (literal output columns, columns pinned by an uncorrelated
// equality, constant CTE columns) are satisfied by any stream.
type wantTerm struct {
	constant  bool
	slot, col int
	desc      bool
}

// accessPlan is the physical access path chosen for one join level.
type accessPlan struct {
	kind accessKind

	// hash access (accessIndexProbe, accessHashJoin)
	probe probeCand
	idx   *hashIndex

	// ordered access (accessOrderedProbe, accessRangeScan, accessOrderedScan)
	oidx     *orderedIndex
	eqPrefix []probeCand // equality bindings for oidx.cols[:len(eqPrefix)]
	lo, hi   *rangeCand  // bounds on oidx.cols[len(eqPrefix)]
	desc     bool        // walk direction

	// innerOrder is the per-group enumeration order this level contributes
	// to the stream, in binding coordinates.
	innerOrder []orderTerm
}

// mapWantTerms resolves ORDER BY keys (output column positions) to binding
// coordinates through the body's select list. ok is false when a key maps
// to something order planning cannot reason about (an arithmetic output,
// an OLD reference), in which case the sort must run.
func mapWantTerms(s *SimpleSelect, srcs []*source, keys []sortSpec) ([]wantTerm, bool) {
	if len(keys) == 0 {
		return nil, true
	}
	terms := make([]wantTerm, len(keys))
	for i, k := range keys {
		if s.Star {
			pos := k.col
			slot := -1
			for si, src := range srcs {
				n := len(src.columns())
				if pos < n {
					slot = si
					break
				}
				pos -= n
			}
			if slot < 0 {
				return nil, false
			}
			terms[i] = wantTerm{slot: slot, col: pos, desc: k.desc}
			continue
		}
		if k.col >= len(s.Exprs) {
			return nil, false
		}
		switch e := s.Exprs[k.col].Expr.(type) {
		case *Literal:
			terms[i] = wantTerm{constant: true}
		case *Param:
			terms[i] = wantTerm{constant: true}
		case *ColumnRef:
			slot := resolveSlot(e, srcs)
			if slot < 0 {
				return nil, false
			}
			col := srcs[slot].columnIndex(e.Name)
			if col < 0 {
				return nil, false
			}
			terms[i] = wantTerm{slot: slot, col: col, desc: k.desc}
		default:
			return nil, false
		}
	}
	return terms, true
}

// constBindCols collects the binding columns pinned to a constant: columns
// with an uncorrelated equality candidate, and constant columns of CTE
// sources (propagated from their materialization). Order satisfaction may
// skip over them.
func constBindCols(plan *simplePlan, srcs []*source) map[[2]int]bool {
	consts := make(map[[2]int]bool)
	for _, lp := range plan.levels {
		src := srcs[lp.slot]
		for _, c := range lp.cands {
			if c.correlated {
				continue
			}
			if ci := src.columnIndex(c.col); ci >= 0 {
				consts[[2]int{lp.slot, ci}] = true
			}
		}
		if src.rows != nil {
			for _, ci := range src.rows.consts {
				consts[[2]int{lp.slot, ci}] = true
			}
		}
	}
	return consts
}

// planPhysical chooses every level's access path, preferring order-carrying
// paths where they help the wanted keys. It reports whether the stream
// satisfies them (satisfied), and whether the stream's order tuple is
// additionally unique per row (pinned) — every level pinned by a unique
// streamed column or single-row — which downstream joins over a
// materialized CTE need before refining its order further. It is pure — no
// execution state beyond the access cache, which planMu guards because the
// plan rides on a shared AST — so EXPLAIN shares it.
func (db *DB) planPhysical(plan *simplePlan, srcs []*source, want []wantTerm) ([]accessPlan, bool, bool) {
	if len(want) == 0 {
		// No order interest: per-level choice alone, no satisfaction walk.
		// The choice depends only on the live index set, so it caches on
		// the plan (table sources only; CTE results differ per execution).
		epoch := int64(0)
		cacheable := true
		for _, src := range srcs {
			if src.table == nil {
				cacheable = false
				break
			}
			epoch += src.table.indexEpoch
		}
		db.planMu.Lock()
		defer db.planMu.Unlock()
		if cacheable && plan.accessValid && plan.accessEpoch == epoch {
			return plan.access, true, false
		}
		access := make([]accessPlan, len(plan.levels))
		for pos, lp := range plan.levels {
			access[pos] = chooseAccessPlan(lp, srcs[lp.slot], pos, nil, true)
		}
		if cacheable {
			plan.access = access
			plan.accessEpoch = epoch
			plan.accessValid = true
		}
		return access, true, false
	}
	consts := constBindCols(plan, srcs)
	// A level pinned to at most one row — an uncorrelated equality on a
	// unique column, or a CTE that materialized ≤ 1 row — makes every
	// column of its slot a stream constant and cannot disturb order.
	singleSlot := make(map[int]bool)
	for _, lp := range plan.levels {
		if singleRowLevel(lp, srcs[lp.slot]) {
			singleSlot[lp.slot] = true
		}
	}
	isConst := func(w wantTerm) bool {
		return w.constant || singleSlot[w.slot] || consts[[2]int{w.slot, w.col}]
	}
	wi := 0
	alive := true
	pinned := true
	skip := func() {
		for wi < len(want) && isConst(want[wi]) {
			wi++
		}
	}
	access := make([]accessPlan, len(plan.levels))
	for pos, lp := range plan.levels {
		skip()
		// upcoming collects the same-slot prefix of the unconsumed keys;
		// wantEnds records whether that prefix runs to the end of want —
		// order terms beyond it are then harmless — or stops at another
		// slot's key, which any trailing term would fail to match.
		var upcoming []wantTerm
		wantEnds := true
		if alive && !singleSlot[lp.slot] {
			for j := wi; j < len(want); j++ {
				if isConst(want[j]) {
					continue
				}
				if want[j].slot != lp.slot {
					wantEnds = false
					break
				}
				upcoming = append(upcoming, want[j])
			}
		}
		ap := chooseAccessPlan(lp, srcs[lp.slot], pos, upcoming, wantEnds)
		access[pos] = ap
		if singleSlot[lp.slot] {
			continue
		}
		if !alive {
			pinned = false
			continue
		}
		// Consume the level's enumeration order against the wanted keys. A
		// level whose rows arrive in an order the keys do not continue with
		// (or in no order at all, while keys remain) breaks satisfaction:
		// every later level re-enumerates per row, restarting its order.
		matched := true
		consumed := 0
		for _, ot := range ap.innerOrder {
			skip()
			if wi >= len(want) {
				break
			}
			w := want[wi]
			if w.slot == ot.slot && w.col == ot.col && w.desc == ot.desc {
				wi++
				consumed++
				continue
			}
			matched = false
			break
		}
		skip()
		if !matched {
			alive = false
			pinned = false
			continue
		}
		if !levelPinsUnique(srcs[lp.slot], ap, consumed) {
			pinned = false
			// Later keys refine rows *within* this level's groups. That is
			// only the lexicographic continuation if the consumed keys pin
			// the level to one row per key combination — equal-key rows
			// would each restart the deeper order. Without a unique pin,
			// satisfaction ends at the keys consumed so far.
			if wi < len(want) {
				alive = false
			}
		}
	}
	skip()
	return access, alive && wi >= len(want), pinned
}

// levelPinsUnique reports whether the order terms the satisfaction walk
// actually consumed (innerOrder[:consumed]) identify the level's rows
// uniquely: a consumed key column that is unique in the source table, or a
// CTE whose unique recorded order was consumed in full. Terms beyond
// consumed do not pin — they never made it into the stream's recorded
// order, so equal consumed-key rows may still interleave (a trailing
// unique id orders rows *within* a duplicate-key group; it does not make
// the consumed prefix unique). Equality-bound columns cannot pin either —
// they are equal within a group by construction.
func levelPinsUnique(src *source, ap accessPlan, consumed int) bool {
	if src.rows != nil {
		return src.rows.orderUnique && consumed > 0 && consumed == len(ap.innerOrder)
	}
	t := src.table
	if t == nil || len(t.uniqueCols) == 0 {
		return false
	}
	for _, ot := range ap.innerOrder[:consumed] {
		if t.uniqueCols[ot.col] {
			return true
		}
	}
	return false
}

// singleRowLevel reports whether a join level is guaranteed to bind at most
// one row: an uncorrelated equality candidate on a unique column, or a CTE
// whose materialization recorded a single row.
func singleRowLevel(lp levelPlan, src *source) bool {
	if src.rows != nil {
		return src.rows.single
	}
	t := src.table
	if t == nil || len(t.uniqueCols) == 0 {
		return false
	}
	for _, c := range lp.cands {
		if c.correlated {
			continue
		}
		if ci := t.Schema.ColumnIndex(c.col); ci >= 0 && t.uniqueCols[ci] {
			return true
		}
	}
	return false
}

// chooseAccessPlan picks one level's physical access path against the live
// database. Candidate order: an ordered index serving both an equality
// prefix and a range bound (the tightest window), an ordered index whose
// remaining key columns continue the wanted order (sort elision), a hash
// probe, an ordered index serving plain equality, a transient hash join, a
// bounded range walk, a full ordered walk that buys the wanted order, and
// finally the heap scan. wantEnds reports that upcoming reaches the end of
// the wanted keys (see planPhysical).
func chooseAccessPlan(lp levelPlan, src *source, pos int, upcoming []wantTerm, wantEnds bool) accessPlan {
	t := src.table
	if t == nil {
		// CTE source: a scan replays the materialized rows, inheriting
		// whatever order the producing pipeline recorded (constant columns
		// are dropped — they carry no ordering information).
		ap := accessPlan{kind: accessScan}
		if src.rows != nil {
			constSet := make(map[int]bool, len(src.rows.consts))
			for _, ci := range src.rows.consts {
				constSet[ci] = true
			}
			for _, o := range src.rows.order {
				if constSet[o.col] {
					continue
				}
				ap.innerOrder = append(ap.innerOrder, orderTerm{slot: lp.slot, col: o.col, desc: o.desc})
			}
		}
		// At an inner join level the scan replays the CTE once per outer
		// row; a correlated equality is served by the transient hash join
		// instead (one build, bucket probes — the PR 1 path). The scan only
		// earns its keep when the satisfaction walk will actually consume
		// its recorded order: every upcoming key matched term-for-term,
		// with trailing order terms tolerable only when the wanted keys
		// end inside this slot (otherwise they mismatch the next slot's
		// key and elision dies anyway, leaving the worst of both paths).
		ordersHelp := len(upcoming) > 0 && len(ap.innerOrder) >= len(upcoming)
		for i, ot := range ap.innerOrder {
			if !ordersHelp {
				break
			}
			if i >= len(upcoming) {
				ordersHelp = wantEnds
				break
			}
			if upcoming[i].col != ot.col || upcoming[i].desc != ot.desc {
				ordersHelp = false
			}
		}
		if pos > 0 && !ordersHelp {
			for _, c := range lp.cands {
				if c.correlated {
					return accessPlan{kind: accessHashJoin, probe: c}
				}
			}
		}
		return ap
	}

	// Fast path: with no range conjuncts and no wanted order, the decision
	// reduces to the PR 1 ladder (hash probe, equality via an ordered
	// index, hash join, scan) — skip option enumeration entirely. Trigger
	// bodies and orderless queries hit this per execution.
	if len(lp.ranges) == 0 && len(upcoming) == 0 {
		for _, c := range lp.cands {
			if idx := t.lookupIndex(c.col); idx != nil {
				return accessPlan{kind: accessIndexProbe, probe: c, idx: idx}
			}
		}
		if len(t.orderedList) > 0 {
			for i := range lp.cands {
				if oidx := t.orderedLeadIndex(lp.cands[i].col); oidx != nil {
					// Degenerate single-column prefix: selective enough for
					// an orderless probe, and the gated conjuncts re-check.
					return accessPlan{kind: accessOrderedProbe, oidx: oidx, eqPrefix: lp.cands[i : i+1 : i+1]}
				}
			}
		}
		if pos > 0 {
			for _, c := range lp.cands {
				if c.correlated {
					return accessPlan{kind: accessHashJoin, probe: c}
				}
			}
		}
		return accessPlan{kind: accessScan}
	}

	type option struct {
		oidx   *orderedIndex
		eq     []probeCand
		lo, hi *rangeCand
		gain   int
		desc   bool
	}
	var opts []option
	for _, oidx := range t.orderedIndexList() {
		o := option{oidx: oidx}
		for _, ci := range oidx.cols {
			var found *probeCand
			for i := range lp.cands {
				if t.Schema.ColumnIndex(lp.cands[i].col) == ci {
					found = &lp.cands[i]
					break
				}
			}
			if found == nil {
				break
			}
			o.eq = append(o.eq, *found)
		}
		if len(o.eq) < len(oidx.cols) {
			nextCi := oidx.cols[len(o.eq)]
			for i := range lp.ranges {
				rc := &lp.ranges[i]
				if t.Schema.ColumnIndex(rc.col) != nextCi {
					continue
				}
				switch rc.op {
				case ">", ">=":
					if o.lo == nil {
						o.lo = rc
					}
				case "<", "<=":
					if o.hi == nil {
						o.hi = rc
					}
				}
			}
		}
		if len(upcoming) > 0 {
			d := upcoming[0].desc
			for i := len(o.eq); i < len(oidx.cols) && o.gain < len(upcoming); i++ {
				w := upcoming[o.gain]
				if w.slot == lp.slot && w.col == oidx.cols[i] && w.desc == d {
					o.gain++
					continue
				}
				break
			}
			if o.gain > 0 {
				o.desc = d
			}
		}
		opts = append(opts, o)
	}
	pick := func(filter func(option) bool) *option {
		var best *option
		for i := range opts {
			o := &opts[i]
			if !filter(*o) {
				continue
			}
			if best == nil ||
				len(o.eq) > len(best.eq) ||
				(len(o.eq) == len(best.eq) && o.gain > best.gain) {
				best = o
			}
		}
		return best
	}
	mk := func(o *option, kind accessKind) accessPlan {
		ap := accessPlan{kind: kind, oidx: o.oidx, eqPrefix: o.eq, desc: o.desc}
		if kind == accessRangeScan {
			ap.lo, ap.hi = o.lo, o.hi
		}
		start := len(o.eq)
		for i := start; i < len(o.oidx.cols); i++ {
			ap.innerOrder = append(ap.innerOrder, orderTerm{slot: lp.slot, col: o.oidx.cols[i], desc: o.desc})
		}
		return ap
	}

	// 1. Equality prefix plus a range bound: the tightest window.
	if o := pick(func(o option) bool { return len(o.eq) > 0 && (o.lo != nil || o.hi != nil) }); o != nil {
		return mk(o, accessRangeScan)
	}
	// 2. Equality prefix whose remaining key columns continue the wanted
	// order: probe ordered, enabling sort elision.
	if o := pick(func(o option) bool { return len(o.eq) > 0 && o.gain > 0 }); o != nil {
		return mk(o, accessOrderedProbe)
	}
	// 3. Hash probe sorting each bucket by the wanted columns: order
	// without a dedicated B+tree. Groups are child lists — small — so the
	// per-group sort is cheaper than maintaining (parentId, id) trees on
	// every write; this is the Sorted Outer Union's child-branch path.
	if len(upcoming) > 0 {
		for _, c := range lp.cands {
			if idx := t.lookupIndex(c.col); idx != nil {
				ap := accessPlan{kind: accessSortedProbe, probe: c, idx: idx}
				for _, w := range upcoming {
					ap.innerOrder = append(ap.innerOrder, orderTerm{slot: w.slot, col: w.col, desc: w.desc})
				}
				return ap
			}
		}
	}
	// 4. Plain hash probe (the PR 1 fast path).
	for _, c := range lp.cands {
		if idx := t.lookupIndex(c.col); idx != nil {
			return accessPlan{kind: accessIndexProbe, probe: c, idx: idx}
		}
	}
	// 5. Equality served by an ordered index when no hash index exists.
	if o := pick(func(o option) bool { return len(o.eq) > 0 }); o != nil {
		return mk(o, accessOrderedProbe)
	}
	// 6. Correlated equality with no index: transient hash join.
	if pos > 0 {
		for _, c := range lp.cands {
			if c.correlated {
				return accessPlan{kind: accessHashJoin, probe: c}
			}
		}
	}
	// 7. Bounded range walk with no equality prefix.
	if o := pick(func(o option) bool { return o.lo != nil || o.hi != nil }); o != nil {
		return mk(o, accessRangeScan)
	}
	// 8. Full ordered walk, only when it buys the wanted order.
	if o := pick(func(o option) bool { return o.gain > 0 }); o != nil {
		return mk(o, accessOrderedScan)
	}
	return accessPlan{kind: accessScan}
}

// ---- desired-order propagation into CTEs ----

// cteWants derives, for each CTE of a statement, the order its consumers
// would like it materialized in, as positional ORDER BY keys over the CTE's
// columns. The Sorted Outer Union is the motivating shape: the top-level
// ORDER BY over the union branches pulls document order down through the
// WITH chain, so every Qi materializes pre-sorted and the final sort
// disappears. The wants are advisory — materialization never adds a sort
// for them; they only steer access-path choice.
func (db *DB) cteWants(s *SelectStmt, env *execEnv, topKeys []OrderKey) map[string][]OrderKey {
	if len(topKeys) == 0 || len(s.With) == 0 {
		return nil
	}
	// The translation depends only on the statement and the schema; cache
	// it on the AST for the statement's own ORDER BY (the shape-cache hot
	// path), guarded by planMu like the other AST-resident caches.
	// Propagated wants from an enclosing statement recompute.
	own := len(s.OrderBy) > 0
	if own {
		db.planMu.Lock()
		if s.wantsValid && s.wantsVer == db.schemaVer {
			w := s.wants
			db.planMu.Unlock()
			return w
		}
		db.planMu.Unlock()
	}
	wants := db.cteWantsUncached(s, env, topKeys)
	if own {
		db.planMu.Lock()
		s.wants = wants
		s.wantsVer = db.schemaVer
		s.wantsValid = true
		db.planMu.Unlock()
	}
	return wants
}

func (db *DB) cteWantsUncached(s *SelectStmt, env *execEnv, topKeys []OrderKey) map[string][]OrderKey {
	ctes := make(map[string]*CTE, len(s.With))
	for i := range s.With {
		ctes[strings.ToLower(s.With[i].Name)] = &s.With[i]
	}
	// Stub environment: column names only, enough to resolve sources.
	stubEnv := newEnvFrom(env)
	for _, cte := range s.With {
		stubEnv.ctes[strings.ToLower(cte.Name)] = &Rows{Cols: cteColumns(cte)}
	}
	wants := make(map[string][]OrderKey)
	type task struct {
		body *SimpleSelect
		keys []OrderKey
	}
	queue := make([]task, 0, len(s.Body))
	for _, b := range s.Body {
		queue = append(queue, task{b, topKeys})
	}
	for len(queue) > 0 {
		tk := queue[0]
		queue = queue[1:]
		b := tk.body
		srcs, err := db.resolveSources(b, stubEnv)
		if err != nil {
			continue
		}
		keys, err := resolveOrderKeys(tk.keys, outputColumns(b, srcs))
		if err != nil {
			continue
		}
		for fi, f := range b.From {
			cte, ok := ctes[strings.ToLower(f.Table)]
			if !ok || srcs[fi].rows == nil {
				continue
			}
			tw := translateWant(b, srcs, fi, keys)
			name := strings.ToLower(cte.Name)
			if len(tw) == 0 || len(tw) <= len(wants[name]) {
				continue
			}
			wants[name] = tw
			for _, bb := range cte.Select.Body {
				queue = append(queue, task{bb, tw})
			}
		}
	}
	return wants
}

// translateWant maps resolved order keys through body b's select list onto
// the FROM slot fi, producing positional keys over that source's columns.
// Constant keys are dropped (any order satisfies them); translation stops
// at the first key that belongs to another slot — later keys refine groups
// the source cannot see.
func translateWant(b *SimpleSelect, srcs []*source, fi int, keys []sortSpec) []OrderKey {
	// keyCol classifies output position pos: the source-column index on
	// slot fi, a body-level constant, or neither.
	keyCol := func(pos int) (col int, constant, ok bool) {
		if b.Star {
			for si, src := range srcs {
				n := len(src.columns())
				if pos < n {
					if si != fi {
						return 0, false, false
					}
					return pos, false, true
				}
				pos -= n
			}
			return 0, false, false
		}
		if pos >= len(b.Exprs) {
			return 0, false, false
		}
		switch e := b.Exprs[pos].Expr.(type) {
		case *Literal, *Param:
			return 0, true, true
		case *ColumnRef:
			if resolveSlot(e, srcs) != fi {
				return 0, false, false
			}
			ci := srcs[fi].columnIndex(e.Name)
			if ci < 0 {
				return 0, false, false
			}
			return ci, false, true
		default:
			return 0, false, false
		}
	}
	var out []OrderKey
	for _, k := range keys {
		col, constant, ok := keyCol(k.col)
		if !ok {
			break
		}
		if constant {
			continue
		}
		out = append(out, OrderKey{Expr: &Literal{Value: Int(int64(col + 1))}, Desc: k.desc})
	}
	return out
}
