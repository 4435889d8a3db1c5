package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/relational"
)

// metric is one reported number. The names and units here are the ones
// BENCHMARK.json declares; TestBenchmarkJSON holds the two together.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// p90 is the nearest-rank 90th percentile: a tenth of the samples lie beyond
// it, so it wants at least 100 samples.
func p90(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[int(math.Ceil(0.9*float64(len(s))))-1]
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives what a user of the store pays, from an untraced pass.
func endToEnd(r *result) []metric {
	var busy float64
	for k := range r.busy {
		busy += r.busy[k].Seconds()
	}
	return []metric{
		{"setup_s", "s", median(r.setupS)},
		{"ops_per_s", "1/s", div(float64(r.attempted), busy)},
		{"update_p50_ms", "ms", median(r.lat[opUpdate])},
		{"update_p90_ms", "ms", p90(r.lat[opUpdate])},
		{"read_p50_ms", "ms", median(r.lat[opRead])},
		{"read_p90_ms", "ms", p90(r.lat[opRead])},
		{"live_heap_mb", "MB", r.liveHeapMB},
	}
}

// perLayer derives the single-layer numbers from a traced pass tr and the
// untraced pass un over the identical op list. Times come from the
// benchmark's own spans and the engine's QueryTrace; counts from DB.Stats
// deltas taken around each measured op.
func perLayer(tr, un *result) []metric {
	rec := tr.rec
	upd, rd := rec.kindAgg("update"), rec.kindAgg("read")
	updates, reads, ckpts := float64(tr.ops(opUpdate)), float64(tr.ops(opRead)), float64(tr.ops(opCheckpoint))
	ops := float64(tr.attempted)

	var st stmtSums // statements of every measured op
	var all, updStats = tr.stats[opUpdate], tr.stats[opUpdate]
	addStats(&all, tr.stats[opRead], relational.Stats{})
	addStats(&all, tr.stats[opCheckpoint], relational.Stats{})
	for _, k := range kindNames {
		st.add(rec.kindAgg(k).stmts)
	}
	us := func(ns int64, n float64) float64 { return div(float64(ns)/1e3, n) }

	// engine self time on update ops: every engine.* span minus the SQL
	// statements and other calls it covers.
	var engineSelf, rootsAll, selfAll int64
	for name, ns := range upd.self {
		if layerOf(name) == "engine" {
			engineSelf += ns
		}
	}
	for _, k := range kindNames {
		a := rec.kindAgg(k)
		rootsAll += a.roots
		for _, ns := range a.self {
			selfAll += ns
		}
	}
	var busy float64
	for k := range tr.busy {
		busy += float64(tr.busy[k])
	}
	outsideSQL := float64(upd.self["xquery.Parse"] + engineSelf)
	// Statement time the engine's trace assigns to no phase: the shape-cache
	// lookup, and all of a Query/QueryEach scan (those paths record no Execute).
	unphased := st.total - st.parse - st.lock - st.exec - st.commit - st.fsy

	out := []metric{
		{"xquery.parse_us_per_stmt", "us", us(upd.self["xquery.Parse"]+rd.self["xquery.Parse"], float64(upd.calls["xquery.Parse"]+rd.calls["xquery.Parse"]))},
		{"engine.exec_self_us_per_update", "us", us(engineSelf, updates)},
		{"engine.sql_stmts_per_update", "count", div(float64(updStats.Statements), updates)},
		{"engine.trigger_firings_per_update", "count", div(float64(updStats.TriggerFirings), updates)},
		{"engine.update_outside_sql_share", "ratio", div(outsideSQL, float64(upd.roots))},
	}
	for k, sg := range strategies {
		var v float64
		if tr.stratMS != nil {
			v = median(tr.stratMS[k])
		}
		out = append(out, metric{"engine." + sg.name, "ms", v})
	}
	walN := float64(tr.walFsync.Count)
	out = append(out,
		metric{"relational.parse_plan_us_per_stmt", "us", us(st.parse, float64(st.n))},
		metric{"relational.plan_cache_hit_ratio", "ratio", div(float64(all.PlanCacheHits), float64(all.PlanCacheHits+all.PlanCacheMisses))},
		metric{"relational.execute_us_per_stmt", "us", us(st.exec, float64(st.n))},
		metric{"relational.rows_scanned_per_op", "count", div(float64(all.RowsScanned), ops)},
		metric{"relational.index_probes_per_op", "count", div(float64(all.IndexProbes), ops)},
		metric{"relational.full_scans_per_op", "count", div(float64(all.FullScans), ops)},
		metric{"relational.range_probes_per_op", "count", div(float64(all.RangeProbes), ops)},
		metric{"relational.sort_passes_per_op", "count", div(float64(all.SortPasses), ops)},
		metric{"relational.hash_join_builds_per_op", "count", div(float64(all.HashJoinBuilds), ops)},
		metric{"relational.unphased_us_per_stmt", "us", us(unphased, float64(st.n))},
		metric{"relational.commit_us_per_stmt", "us", us(st.commit, float64(st.n))},
		metric{"relational.lock_wait_us_per_stmt", "us", us(st.lock, float64(st.n))},
		metric{"relational.fsync_wait_us_per_stmt", "us", us(st.fsy, float64(st.n))},
		metric{"relational.version_chain_hops_per_op", "count", div(float64(all.VersionChainHops), ops)},
		metric{"relational.versions_vacuumed_per_op", "count", div(float64(all.VersionsVacuumed), ops)},
		metric{"relational.reopen_ms", "ms", tr.relReopenMS},
		metric{"relational.restore_ms", "ms", median(tr.restoreMS)},
		metric{"outerunion.sql_ms", "ms", median(tr.probes.sqlMS)},
		metric{"outerunion.assemble_ms", "ms", median(tr.probes.assembleMS)},
		metric{"outerunion.rows_per_element", "ratio", div(float64(tr.probes.rows), float64(tr.probes.elements))},
		metric{"shred.load_tuples_per_s", "1/s", tr.loadTuples},
		metric{"shred.mapping_ms", "ms", tr.mappingMS},
		metric{"asr.build_ms", "ms", tr.asrBuildMS},
		metric{"wal.append_us_mean", "us", us(tr.walAppend.Sum, float64(tr.walAppend.Count))},
		metric{"wal.fsync_us_mean", "us", us(tr.walFsync.Sum, walN)},
		metric{"wal.fsyncs_per_update", "count", div(walN, updates)},
		metric{"wal.bytes_per_update", "B", div(float64(tr.walBytes), updates)},
		metric{"wal.raw_append_durable_us", "us", tr.rawWalUS},
		metric{"pager.page_reads_per_read", "count", div(float64(tr.stats[opRead].PageReads), reads)},
		metric{"pager.pool_hit_ratio", "ratio", div(float64(all.PoolHits), float64(all.PoolHits+all.PoolMisses))},
		metric{"pager.evictions_per_op", "count", div(float64(all.Evictions), ops)},
		metric{"pager.checkpoint_ms_p50", "ms", median(tr.ckptMS)},
		metric{"pager.page_writes_per_checkpoint", "count", div(float64(tr.stats[opCheckpoint].PageWrites), ckpts)},
		metric{"pager.dirty_flushes_per_checkpoint", "count", div(float64(tr.stats[opCheckpoint].DirtyFlushes), ckpts)},
		metric{"pager.checkpoint_bytes", "B", div(float64(tr.stats[opCheckpoint].PageWrites)*pageSize, ckpts)},
		metric{"storage.reopen_s", "s", median(tr.reopenS)},
		metric{"storage.disk_bytes_per_xml_byte", "ratio", div(float64(tr.diskBytes), float64(tr.xmlBytes))},
		metric{"process.allocs_per_op", "count", div(float64(un.mallocs), float64(un.attempted))},
		metric{"process.alloc_bytes_per_op", "B", div(float64(un.allocBytes), float64(un.attempted))},
		metric{"process.heap_growth_bytes_per_op", "B", div(float64(un.heapGrowth), float64(un.attempted))},
		metric{"process.gc_pause_ms_total", "ms", float64(un.gcPauseNS) / 1e6},
		metric{"process.tracing_overhead_pct", "%", 100 * (1 - div(opsPerSec(tr), opsPerSec(un)))},
		metric{"trace.unattributed_pct", "%", 100 * div(float64(rec.layerSelf()["op"]), float64(rootsAll))},
		metric{"trace.span_coverage_pct", "%", 100 * div(float64(selfAll), busy)},
	)
	return out
}

func opsPerSec(r *result) float64 { return endToEnd(r)[1].Value }

// layerTable renders where the measured time went, by layer, from span self
// times: the readable form of the trace.
func layerTable(tr *result) string {
	self := tr.rec.layerSelf()
	var total int64
	names := make([]string, 0, len(self))
	for l, ns := range self {
		names = append(names, l)
		total += ns
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, l := range names {
		label := l
		if l == "op" {
			label = "(unattributed)"
		}
		fmt.Fprintf(&b, "%-16s%12.4f ms %8.4f %%\n", label, float64(self[l])/1e6, 100*div(float64(self[l]), float64(total)))
	}
	return b.String()
}
