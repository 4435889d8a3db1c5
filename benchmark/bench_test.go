package main

import (
	"math"
	"testing"
)

// quickRun measures a fixed number of ops at the quick scale, traced, with
// the whole op list held against the DOM oracle.
func quickRun(t *testing.T, def *workloadDef, seed int64) (*result, map[string]float64) {
	t.Helper()
	n := 160
	if def.quick.sf > 0 {
		n = 12
	}
	r, err := run(runCfg{def: def, quick: true, seed: seed, maxOps: n, traced: true, domFull: true, tmp: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d: %v", def.name, seed, err)
	}
	if r.failed != 0 || r.attempted != n {
		t.Fatalf("%s seed %d: %d of %d ops failed (wanted %d attempted): %v", def.name, seed, r.failed, r.attempted, n, r.errs)
	}
	vals := map[string]float64{}
	for _, m := range perLayer(r, r) {
		vals[m.Name] = m.Value
	}
	return r, vals
}

// TestDeterminism: the same seed gives the same document, op list, final
// document and exact counts; another seed gives another op list; every op
// agrees with the DOM oracle over the whole list; no span's children outlast
// it.
func TestDeterminism(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			a, av := quickRun(t, def, 7)
			b, bv := quickRun(t, def, 7)
			if a.inputHash != b.inputHash || a.docHash != b.docHash {
				t.Errorf("same seed: inputs %s/%s, documents %s/%s", a.inputHash, b.inputHash, a.docHash, b.docHash)
			}
			for _, name := range exactCounts {
				if _, ok := av[name]; !ok {
					t.Errorf("exact count %s is not a per-layer metric", name)
				}
				if av[name] != bv[name] {
					t.Errorf("%s: %v then %v; an exact count must repeat", name, av[name], bv[name])
				}
			}
			if a.rec.overruns != 0 {
				t.Errorf("%d spans are shorter than their children", a.rec.overruns)
			}
			if cov := av["trace.span_coverage_pct"]; math.Abs(cov-100) > 5 {
				t.Errorf("span self times cover %.2f%% of the measured time, want within 5%% of it", cov)
			}
			c, _ := quickRun(t, def, 8)
			if c.inputHash == a.inputHash {
				t.Errorf("seeds 7 and 8 gave the same inputs %s", c.inputHash)
			}
		})
	}
}

// TestSameStatementsSameDocument: durable_mix_paged and stmt_point_mem draw
// from one statement stream, so after the same number of statements the
// document recovered from the durable store's kill-style copy is the memory
// store's document: every acknowledged update survived, none changed.
func TestSameStatementsSameDocument(t *testing.T) {
	durable, mem := findWorkload("durable_mix_paged"), findWorkload("stmt_point_mem")
	d, _ := quickRun(t, durable, 5)
	m, err := run(runCfg{def: mem, quick: true, seed: 5, maxOps: d.drawn - mem.quick.warmup, domFull: true, tmp: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 || m.drawn != d.drawn {
		t.Fatalf("memory run: %d failed, %d statements drawn, want 0 and %d: %v", m.failed, m.drawn, d.drawn, m.errs)
	}
	if m.docHash != d.docHash {
		t.Errorf("after %d statements the memory store holds document %s, the recovered durable store %s", d.drawn, m.docHash, d.docHash)
	}
}

// TestLayerSeparation: the workloads stress the layers they say they do.
func TestLayerSeparation(t *testing.T) {
	zeroOnMemory := []string{"wal.fsyncs_per_update", "wal.bytes_per_update", "pager.page_reads_per_read", "pager.evictions_per_op", "storage.reopen_s"}
	for _, def := range workloads {
		_, v := quickRun(t, def, 3)
		switch def.name {
		case "stmt_point_mem", "bulk_strategy_mem":
			for _, name := range zeroOnMemory {
				if v[name] != 0 {
					t.Errorf("%s: %s = %v, want 0 on a memory store", def.name, name, v[name])
				}
			}
		case "durable_mix_paged":
			if v["pager.page_reads_per_read"] != 0 {
				t.Errorf("durable_mix_paged reads %v pages per read; the file fits its pool", v["pager.page_reads_per_read"])
			}
			if v["wal.fsyncs_per_update"] < 1 || v["wal.bytes_per_update"] == 0 || v["storage.reopen_s"] == 0 {
				t.Errorf("durable_mix_paged: fsyncs/update %v, bytes/update %v, reopen %v", v["wal.fsyncs_per_update"], v["wal.bytes_per_update"], v["storage.reopen_s"])
			}
		case "scan_paged_cold":
			if v["pager.page_reads_per_read"] == 0 || v["pager.evictions_per_op"] == 0 {
				t.Errorf("scan_paged_cold: %v page reads per read, %v evictions per op; the pool is smaller than the file", v["pager.page_reads_per_read"], v["pager.evictions_per_op"])
			}
		}
		if def.name == "bulk_strategy_mem" && v["xquery.parse_us_per_stmt"] != 0 {
			t.Errorf("bulk_strategy_mem parses statements: %v us", v["xquery.parse_us_per_stmt"])
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json names exactly the workloads and metrics
// the program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q (%s) in BENCHMARK.json, %q (%s) in the program", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	r, _ := quickRun(t, workloads[0], 1)
	if err := spec.check(false, endToEnd(r)); err != nil {
		t.Error(err)
	}
	if err := spec.check(true, perLayer(r, r)); err != nil {
		t.Error(err)
	}
}

// TestQuartiles: the same numbers Python's statistics.quantiles(v, n=4)
// gives, since the driver judges spreads with it.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
