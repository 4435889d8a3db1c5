package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// exactCounts are the per-layer metrics that must repeat exactly for a fixed
// seed and op count: one client and no timers, so the engine does the same
// work every time.
var exactCounts = []string{
	"engine.sql_stmts_per_update", "engine.trigger_firings_per_update",
	"relational.rows_scanned_per_op", "relational.index_probes_per_op", "relational.full_scans_per_op",
	"relational.range_probes_per_op", "relational.sort_passes_per_op", "relational.hash_join_builds_per_op",
	"relational.version_chain_hops_per_op", "relational.versions_vacuumed_per_op",
	"relational.plan_cache_hit_ratio", "outerunion.rows_per_element",
	"wal.fsyncs_per_update", "wal.bytes_per_update",
	"pager.page_reads_per_read", "pager.pool_hit_ratio", "pager.evictions_per_op",
	"pager.page_writes_per_checkpoint", "pager.dirty_flushes_per_checkpoint", "pager.checkpoint_bytes",
	"storage.disk_bytes_per_xml_byte",
}

// quartiles returns Q1, median, Q3 the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what the
// driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s, m := sorted(v), len(v)
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// driverLine is the last line a single-workload run prints.
type driverLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func invoke(args ...string) (*driverLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(outb), []byte("\n"))
	var l driverLine
	if err := json.Unmarshal(lines[len(lines)-1], &l); err != nil {
		return nil, fmt.Errorf("%v: last line: %w", args, err)
	}
	if !l.Correct || l.Failed > 0 {
		return nil, fmt.Errorf("%v: %d of %d ops failed", args, l.Failed, l.Attempted)
	}
	return &l, nil
}

// setStat is one end-to-end metric over one set of runs.
type setStat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median, held against the bound
	Values []float64 `json:"values"`
}

// selfCheck measures this binary against itself: two sets of runs, each run
// with its own seed, and per workload two traced runs of one fixed op list.
// It fails when a metric's medians differ between the sets by more than the
// bound BENCHMARK.json gives it, when a spread exceeds its bound, or when an
// exact count does not repeat. Its JSON is the baseline a PR commits.
func selfCheck(spec *benchSpec, defs []*workloadDef, seed int64, seconds float64, quick bool, out string) int {
	common := []string{"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", out}
	if quick {
		common = append(common, "-quick")
	}
	type wlOut struct {
		Workload string                `json:"workload"`
		Sets     [2]map[string]setStat `json:"sets"`
		Verdicts map[string]string     `json:"verdicts"`
		PerLayer map[string]float64    `json:"per_layer"`
	}
	bad := 0
	var all []wlOut
	for _, def := range defs {
		w := wlOut{Workload: def.name, Verdicts: map[string]string{}, PerLayer: map[string]float64{}}
		for set := 0; set < 2; set++ {
			vals := map[string][]float64{}
			for i := 0; i < selfcheckRuns; i++ {
				s := seed + int64(set*1000+i)
				l, err := invoke(append([]string{"-workload", def.name, "-seed", fmt.Sprint(s), "-trace", "0"}, common...)...)
				if err != nil {
					fmt.Fprintln(os.Stderr, "selfcheck:", err)
					return 1
				}
				for name, m := range l.Metrics {
					vals[name] = append(vals[name], m.Value)
				}
			}
			w.Sets[set] = map[string]setStat{}
			for name, v := range vals {
				q1, q2, q3 := quartiles(v)
				w.Sets[set][name] = setStat{Median: q2, Q1: q1, Q3: q3, Spread: div(q3-q1, q2), Values: v}
			}
		}
		fmt.Printf("\n## %s: %d runs per set\n%-18s%16s%16s%10s%10s%9s  verdict\n", def.name, selfcheckRuns, "metric", "median A", "median B", "spread A", "spread B", "bound")
		for _, em := range spec.EndToEnd {
			a, b := w.Sets[0][em.Name], w.Sets[1][em.Name]
			worse := div(b.Median-a.Median, a.Median)
			if em.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > em.Bound:
				verdict = fmt.Sprintf("FAIL: second median worse by %.3f", worse)
			case em.Name != "setup_s" && max(a.Spread, b.Spread) > em.Bound:
				verdict = "FAIL: spread above bound"
			case em.Name != "setup_s" && max(a.Spread, b.Spread) > em.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			if verdict[0] == 'F' {
				bad++
			}
			w.Verdicts[em.Name] = verdict
			fmt.Printf("%-18s%16.4f%16.4f%10.4f%10.4f%9.2f  %s\n", em.Name, a.Median, b.Median, a.Spread, b.Spread, em.Bound, verdict)
		}

		// Per-layer numbers for the baseline: one traced run at the gated length.
		traced := []string{"-workload", def.name, "-seed", fmt.Sprint(seed), "-trace", "1"}
		l, err := invoke(append(traced, common...)...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			return 1
		}
		for name, m := range l.Metrics {
			w.PerLayer[name] = m.Value
		}
		// Exact counts: the same seed and a fixed op count, traced, twice.
		var pl [2]*driverLine
		for i := range pl {
			if pl[i], err = invoke(append(append(traced, "-ops", fmt.Sprint(exactOps(def, quick))), common...)...); err != nil {
				fmt.Fprintln(os.Stderr, "selfcheck:", err)
				return 1
			}
		}
		for _, name := range exactCounts {
			if a, b := pl[0].Metrics[name].Value, pl[1].Metrics[name].Value; a != b {
				bad++
				w.Verdicts[name] = fmt.Sprintf("FAIL: exact count %v then %v", a, b)
				fmt.Printf("%-40s %v then %v: FAIL, an exact count must repeat\n", name, a, b)
			}
		}
		fmt.Printf("exact counts repeated over two traced runs of %d ops: %d checked\n", exactOps(def, quick), len(exactCounts))
		all = append(all, w)
	}
	verdict := "pass"
	if bad > 0 {
		verdict = fmt.Sprintf("fail (%d)", bad)
	}
	path := filepath.Join(out, "selfcheck.json")
	if err := writeJSON(path, map[string]any{
		"scale": runCfg{quick: quick}.scaleName(), "seconds": seconds, "runs_per_set": selfcheckRuns, "first_seed": seed,
		"verdict": verdict, "workloads": all,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		return 1
	}
	fmt.Printf("\nselfcheck: %s; written to %s\n", verdict, path)
	if bad > 0 {
		return 1
	}
	return 0
}

// exactOps sizes the fixed op list of the exact-count runs to a few seconds.
func exactOps(def *workloadDef, quick bool) int {
	n := 400
	if def.full.sf > 0 {
		n = 40
	}
	if quick {
		n /= 4
	}
	return n
}
