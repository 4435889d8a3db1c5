package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/asr"
	"repro/internal/datagen"
	"repro/internal/outerunion"
	"repro/internal/relational"
	"repro/internal/shred"
)

// Micro-benchmarks for the unboxed row pipeline: scan, hash probe, ordered
// range scan, transient hash join, sort, the §7.2 conventional path query,
// and SOU reconstruction, each reported as min-of-N wall time plus malloc
// counts per operation and per row. On this box wall time is noisy (see the
// benchmarking protocol in DESIGN.md); the malloc columns are the stable
// signal the allocation work optimizes, and the per-PR JSON trajectory
// records both.

// MicroResult is one micro-benchmark's measurement.
type MicroResult struct {
	Name string
	// Rows is the number of rows the operation streams per run.
	Rows int
	// MinSeconds is the fastest of the measured runs (after one discarded
	// warm-up) — the least GC/scheduler-noisy wall-time estimator.
	MinSeconds float64
	// AllocsPerOp is the mean heap allocations per run; AllocsPerRow divides
	// by the rows streamed. The conventional-path pins require the streaming
	// kernels to hold AllocsPerRow at (near) zero.
	AllocsPerOp  float64
	AllocsPerRow float64
	// BytesPerOp is the mean heap bytes allocated per run.
	BytesPerOp float64
}

// microDoc sizes the synthetic document: quick keeps CI fast.
func microScale(cfg Config) int {
	if cfg.Quick {
		return 30
	}
	return 150
}

// measureMicro runs op runs+1 times (first discarded), returning min wall
// time and mean allocation counts. op returns the rows it streamed.
func measureMicro(name string, runs int, op func() (int, error)) (MicroResult, error) {
	res := MicroResult{Name: name}
	var ms0, ms1 runtime.MemStats
	for i := 0; i <= runs; i++ {
		start := time.Now()
		rows, err := op()
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		if i == 0 {
			// Warm-up done: caches hot, buffers grown. Count allocations
			// across the measured runs only.
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			continue
		}
		res.Rows = rows
		if res.MinSeconds == 0 || elapsed < res.MinSeconds {
			res.MinSeconds = elapsed
		}
	}
	runtime.ReadMemStats(&ms1)
	res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(runs)
	res.BytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(runs)
	if res.Rows > 0 {
		res.AllocsPerRow = res.AllocsPerOp / float64(res.Rows)
	}
	return res, nil
}

// RunMicro runs the micro-benchmark suite.
func RunMicro(cfg Config) ([]MicroResult, error) {
	sf := microScale(cfg)
	doc := datagen.Fixed(datagen.FixedParams{ScalingFactor: sf, Depth: 4, Fanout: 4, Seed: 5})
	m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{OrderColumn: true})
	if err != nil {
		return nil, err
	}
	db := relational.NewDB()
	if _, err := shred.Load(db, m, doc); err != nil {
		return nil, err
	}
	a, err := asr.Build(db, m)
	if err != nil {
		return nil, err
	}
	t2, t3 := m.Table("e2").Name, m.Table("e3").Name

	stream := func(q string) func() (int, error) {
		return func() (int, error) {
			n := 0
			_, err := db.QueryEach(q, func([]relational.Value) error { n++; return nil })
			return n, err
		}
	}

	runs := cfg.runs()
	var out []MicroResult
	add := func(name string, op func() (int, error)) error {
		r, err := measureMicro(name, runs, op)
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}

	// Streaming kernels: these are the loops the unboxed representation
	// makes allocation-free per row.
	if err := add("scan", stream(fmt.Sprintf("SELECT id, parentId FROM %s WHERE pos >= 0", t3))); err != nil {
		return nil, err
	}
	if err := add("hash-probe-join", stream(fmt.Sprintf(
		"SELECT C.id FROM %s P, %s C WHERE C.parentId = P.id", t2, t3))); err != nil {
		return nil, err
	}
	if err := add("range-scan", stream(fmt.Sprintf(
		"SELECT C.id FROM %s P, %s C WHERE C.parentId = P.id AND C.pos >= 1 AND C.pos <= 2", t2, t3))); err != nil {
		return nil, err
	}
	if err := add("hash-join", stream(fmt.Sprintf(
		"SELECT C.id FROM %s P, %s C WHERE C.pos = P.pos", t2, t3))); err != nil {
		return nil, err
	}
	if err := add("sort", stream(fmt.Sprintf("SELECT id, k3_v FROM %s ORDER BY k3_v, id", t3))); err != nil {
		return nil, err
	}

	// The §7.2 conventional multiway path query (materialized, as callers
	// use it) and the ASR two-join form.
	conventional, asrSQL, err := PathQueries(db, m, a, 3)
	if err != nil {
		return nil, err
	}
	materialize := func(q string) func() (int, error) {
		return func() (int, error) {
			rows, err := db.Query(q)
			if err != nil {
				return 0, err
			}
			return len(rows.Data), nil
		}
	}
	if err := add("conventional-path", materialize(conventional)); err != nil {
		return nil, err
	}
	if err := add("asr-path", materialize(asrSQL)); err != nil {
		return nil, err
	}

	// SOU reconstruction: the full streaming read path — wide-tuple pipeline
	// with elided sort into XML assembly.
	if err := add("sou-reconstruct", func() (int, error) {
		subs, err := outerunion.Query(db, m, "e1", "")
		if err != nil {
			return 0, err
		}
		n := 0
		for _, st := range subs {
			for _, ids := range st.IDs {
				n += len(ids)
			}
		}
		return n, nil
	}); err != nil {
		return nil, err
	}
	recordStats(db)
	return out, nil
}

// WriteMicro prints the micro suite as aligned columns.
func WriteMicro(w io.Writer, res []MicroResult) {
	fmt.Fprintln(w, "# micro — row-pipeline micro-benchmarks (min-of-N wall, mean mallocs)")
	fmt.Fprintf(w, "%-20s %10s %14s %14s %14s %14s\n", "kernel", "rows", "min time (s)", "allocs/op", "allocs/row", "bytes/op")
	for _, r := range res {
		fmt.Fprintf(w, "%-20s %10d %14.6f %14.1f %14.3f %14.0f\n",
			r.Name, r.Rows, r.MinSeconds, r.AllocsPerOp, r.AllocsPerRow, r.BytesPerOp)
	}
}
