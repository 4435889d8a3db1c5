// Command xbench regenerates the paper's evaluation (§7): Figures 6–11,
// Table 2, the §7.2 ASR path study, the §7.3 cascade comparison, and the
// §7.1.2 randomized-document replication — plus the post-paper scenarios:
// concurrent snapshot readers and write-ahead-log commit throughput.
//
// Usage:
//
//	xbench -exp fig6                  # one experiment
//	xbench -exp all -quick            # everything, at reduced scale
//	xbench -exp table2 -runs 5
//	xbench -exp durability            # WAL commits/sec across fsync modes
//	xbench -exp all -json out.json    # also write results as JSON
//
// With -json, every experiment's structured results are written to the
// given file keyed by experiment id, so a PR-over-PR performance
// trajectory can be recorded mechanically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: fig6…fig11, table2, asrpath, cascade, randdoc, readers, durability, micro, text, obsv, storage, or all")
		quick    = flag.Bool("quick", false, "reduced parameter grid")
		runs     = flag.Int("runs", 4, "measured runs per point (one warm-up run is added and discarded)")
		readers  = flag.Int("readers", 4, "max reader goroutines for the concurrent snapshot-read scenario (-exp readers)")
		writer   = flag.String("writer", "rollback", "writer mode for -exp readers: rollback (abort cycles), live (commit cycles), or both")
		jsonPath = flag.String("json", "", "write experiment results as JSON to this file")
		stats    = flag.Bool("stats", false, "print the aggregated engine Stats counters as JSON after the run")
		trace    = flag.Bool("trace", false, "capture statement trace spans in the obsv experiment")
	)
	flag.Parse()
	cfg := bench.Config{Runs: *runs, Quick: *quick}
	bench.CollectStats(*stats)
	results := make(map[string]any)
	if err := run(*exp, cfg, *readers, *writer, *trace, results); err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(1)
	}
	if *stats {
		fmt.Println("engine stats (aggregated over measured runs):")
		if err := bench.WriteStats(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, results); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
	}
}

func writeJSON(path string, results map[string]any) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type figRunner struct {
	id  string
	run func(bench.Config) (*bench.Figure, error)
}

var figures = []figRunner{
	{"fig6", bench.RunFig6},
	{"fig7", bench.RunFig7},
	{"fig8", bench.RunFig8},
	{"fig9", bench.RunFig9},
	{"fig10", bench.RunFig10},
	{"fig11", bench.RunFig11},
	{"cascade", bench.RunCascadeComparison},
	{"randdoc", bench.RunRandomizedDelete},
}

func run(exp string, cfg bench.Config, readers int, writer string, trace bool, results map[string]any) error {
	matched := false
	for _, f := range figures {
		if exp == "all" || exp == f.id {
			matched = true
			fig, err := f.run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", f.id, err)
			}
			results[f.id] = fig
			bench.WriteFigure(os.Stdout, fig)
			fmt.Println()
		}
	}
	if exp == "all" || exp == "table2" {
		matched = true
		rows, err := bench.RunTable2(cfg)
		if err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		results["table2"] = rows
		bench.WriteTable2(os.Stdout, rows)
		fmt.Println()
	}
	if exp == "all" || exp == "asrpath" {
		matched = true
		pts, err := bench.RunASRPath(cfg)
		if err != nil {
			return fmt.Errorf("asrpath: %w", err)
		}
		results["asrpath"] = pts
		bench.WriteASRPath(os.Stdout, pts)
		fmt.Println()
	}
	if exp == "readers" {
		matched = true
		modes := []string{writer}
		if writer == "both" {
			modes = []string{"rollback", "live"}
		}
		for _, mode := range modes {
			if mode != "rollback" && mode != "live" {
				return fmt.Errorf("readers: unknown writer mode %q (want rollback, live, or both)", mode)
			}
			pts, err := bench.RunConcurrentReaders(cfg, readers, mode)
			if err != nil {
				return fmt.Errorf("readers (%s writer): %w", mode, err)
			}
			key := "readers"
			if mode == "live" {
				key = "readers-live"
			}
			results[key] = pts
			bench.WriteConcurrentReads(os.Stdout, pts)
			fmt.Println()
		}
	}
	if exp == "storage" {
		// Disk-sensitive like durability but with real page files and
		// eviction churn: opt-in rather than part of "all".
		matched = true
		res, err := bench.RunStorage(cfg)
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		results["storage"] = res
		bench.WriteStorage(os.Stdout, res)
		fmt.Println()
	}
	if exp == "all" || exp == "durability" {
		matched = true
		pts, err := bench.RunDurability(cfg)
		if err != nil {
			return fmt.Errorf("durability: %w", err)
		}
		results["durability"] = pts
		bench.WriteDurability(os.Stdout, pts)
		fmt.Println()
	}
	if exp == "all" || exp == "text" {
		matched = true
		res, err := bench.RunText(cfg)
		if err != nil {
			return fmt.Errorf("text: %w", err)
		}
		results["text"] = res
		bench.WriteText(os.Stdout, res)
		fmt.Println()
	}
	if exp == "all" || exp == "obsv" {
		matched = true
		res, err := bench.RunObsv(cfg, trace)
		if err != nil {
			return fmt.Errorf("obsv: %w", err)
		}
		results["obsv"] = res
		bench.WriteObsv(os.Stdout, res)
		fmt.Println()
	}
	if exp == "all" || exp == "micro" {
		matched = true
		res, err := bench.RunMicro(cfg)
		if err != nil {
			return fmt.Errorf("micro: %w", err)
		}
		results["micro"] = res
		bench.WriteMicro(os.Stdout, res)
		fmt.Println()
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
