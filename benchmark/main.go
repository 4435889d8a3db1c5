// Command benchmark is the one instrument performance and simplicity changes
// to the XML-update store are judged by: four workloads, end-to-end metrics
// from an untraced pass, per-layer metrics from a traced pass over the
// identical op list, every result checked. See README.md for the protocol.
//
// The driver's form, one workload and one pass per process:
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Without --workload every workload runs; without --trace both passes run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four)")
		seed      = flag.Int64("seed", 1, "seed for the generated documents and op lists")
		seconds   = flag.Float64("seconds", 0, "length of the measured section (default: run_seconds of BENCHMARK.json; 2 with -quick)")
		trace     = flag.String("trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
		quick     = flag.Bool("quick", false, "small documents and a short run, for iterating; never comparable with a gated run")
		ops       = flag.Int("ops", 0, "measure exactly this many ops instead of -seconds (exact counts then repeat)")
		out       = flag.String("out", filepath.Join("benchmark", "out"), "directory for store files, traces and results.json")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of runs of this binary and compare them within BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
		if *quick {
			*seconds = 2
		}
	}
	defs := workloads
	if *workload != "" {
		d := findWorkload(*workload)
		if d == nil {
			return fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []*workloadDef{d}
	}
	if *selfcheck {
		return selfCheck(spec, defs, *seed, *seconds, *quick, *out)
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		return fatal(fmt.Errorf("-trace wants 0, 1 or both, not %q", *trace))
	}

	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(tmp)

	scaleName := runCfg{quick: *quick}.scaleName()
	fmt.Printf("# xml-update benchmark: scale=%s seed=%d seconds=%g ops=%d — one process, one closed-loop client\n", scaleName, *seed, *seconds, *ops)
	if *quick {
		fmt.Println("# QUICK SCALE: for iterating only; these numbers are not comparable with a gated run")
	}
	ok := true
	var rows []report
	for _, def := range defs {
		for _, traced := range passes {
			cfg := runCfg{def: def, quick: *quick, seed: *seed, seconds: *seconds, maxOps: *ops, tmp: tmp}
			var rep report
			if traced {
				rep, err = tracedPass(cfg, *out)
			} else {
				cfg.setups = setupRuns
				rep, err = untracedPass(cfg)
			}
			if err == nil {
				err = spec.check(traced, rep.Metrics)
			}
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", def.name, err))
			}
			rep.print(def)
			ok = ok && rep.Correct
			rows = append(rows, rep)
		}
	}
	if len(rows) > 1 {
		if err := writeJSON(filepath.Join(*out, "results.json"), rows); err != nil {
			return fatal(err)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// setupRuns is how many times the untraced pass sets the workload up;
// setup_s is the median.
const setupRuns = 5

// selfcheckRuns is how many runs, each with its own seed, make one set of
// -selfcheck: the count the driver judges spreads over.
const selfcheckRuns = 10

// fatal reports a run that produced no result: exit code 2, nothing on
// standard output for the driver to mistake for one.
func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// report is one pass's outcome in the shape both the table and the JSON use.
type report struct {
	Workload  string         `json:"workload"`
	Pass      string         `json:"pass"`
	Scale     string         `json:"scale"`
	Seed      int64          `json:"seed"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Samples   map[string]int `json:"samples"`
	InputHash string         `json:"input_hash"`
	DocHash   string         `json:"doc_hash"`
	Metrics   []metric       `json:"metrics"`
	Errors    []string       `json:"errors,omitempty"`
	layers    string
}

func newReport(r *result, pass string, ms []metric) report {
	rep := report{
		Workload: r.workload, Pass: pass, Scale: r.scale, Seed: r.seed,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Samples:   map[string]int{},
		InputHash: r.inputHash, DocHash: r.docHash, Metrics: ms, Errors: r.errs,
	}
	for k, name := range kindNames {
		rep.Samples[name] = r.ops(opKind(k))
	}
	return rep
}

func untracedPass(cfg runCfg) (report, error) {
	r, err := run(cfg)
	if err != nil {
		return report{}, err
	}
	return newReport(r, "untraced", endToEnd(r)), nil
}

// tracedPass runs an untraced pass for half the time, then the identical op
// list again with spans recorded and Store.OnTrace registered. The per-layer
// numbers come from the second; the gap between the two is what tracing
// costs.
func tracedPass(cfg runCfg, out string) (report, error) {
	un := cfg
	un.seconds = cfg.seconds / 2
	ur, err := run(un)
	if err != nil {
		return report{}, err
	}
	tr := cfg
	tr.traced = true
	tr.maxOps = ur.attempted
	r, err := run(tr)
	if err != nil {
		return report{}, err
	}
	if r.inputHash != ur.inputHash {
		r.failAll(fmt.Errorf("traced pass ran op list %s, untraced %s", r.inputHash, ur.inputHash))
	}
	if ur.failed > 0 {
		r.failAll(fmt.Errorf("untraced half of the traced run: %s", strings.Join(ur.errs, "; ")))
	}
	rep := newReport(r, "traced", perLayer(r, ur))
	rep.layers = layerTable(r)
	err = writeJSON(filepath.Join(out, "trace-"+r.workload+".json"), map[string]any{
		"workload": r.workload, "scale": r.scale, "seed": r.seed,
		"ops_traced": r.attempted, "ops_with_spans_below": min(keepOps, r.rec.op),
		"span_overruns": r.rec.overruns, "per_layer": rep.Metrics, "spans": r.rec.kept,
	})
	return rep, err
}

func (rep report) print(def *workloadDef) {
	fmt.Printf("\n## %s (%s pass, %s scale)\n# why: %s\n", rep.Workload, rep.Pass, rep.Scale, def.why)
	fmt.Printf("ops_attempted %d  ops_failed %d  samples: update %d, read %d, checkpoint %d  inputs %s  document %s\n",
		rep.Attempted, rep.Failed, rep.Samples["update"], rep.Samples["read"], rep.Samples["checkpoint"], rep.InputHash, rep.DocHash)
	for _, e := range rep.Errors {
		fmt.Println("FAILED:", e)
	}
	for _, m := range rep.Metrics {
		fmt.Printf("%-40s%16.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if rep.layers != "" {
		fmt.Print("# measured time by layer (span self times):\n" + rep.layers)
	}
	if def.quick.ckptEvery > 0 {
		fmt.Println("# the kill-style copy keeps the OS cache: it proves recovery of every acknowledged update, not power-loss durability")
	}
	// The driver's line: last on standard output.
	line := map[string]any{"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed}
	ms := map[string]any{}
	for _, m := range rep.Metrics {
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line["metrics"] = ms
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// check holds one pass's metrics against the ones BENCHMARK.json declares
// for it: the same names and units in the same order. Every run makes the
// check, so the program cannot drift from the file the driver reads.
func (s *benchSpec) check(traced bool, got []metric) error {
	kind, want := "end_to_end", s.EndToEnd
	if traced {
		kind, want = "per_layer", s.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("BENCHMARK.json declares %d %s metrics, the program reports %d", len(want), kind, len(got))
	}
	for i := range want {
		if want[i].Name != got[i].Name || want[i].Unit != got[i].Unit {
			return fmt.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, want[i].Name, want[i].Unit, got[i].Name, got[i].Unit)
		}
	}
	return nil
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root, as benchmark/run.sh does)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
