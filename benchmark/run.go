package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/asr"
	"repro/internal/metrics"
	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/wal"
	"repro/internal/xmltree"
)

// runCfg is one pass over one workload.
type runCfg struct {
	def     *workloadDef
	quick   bool
	seed    int64
	seconds float64 // wall-clock length of the measured section
	maxOps  int     // > 0: measure exactly this many ops instead
	traced  bool
	domFull bool   // hold the whole op list against the DOM oracle, not only the warm-up
	setups  int    // times to set up; the median is setup_s
	tmp     string // parent of the store directories
}

func (c runCfg) scale() scale {
	if c.quick {
		return c.def.quick
	}
	return c.def.full
}

func (c runCfg) scaleName() string {
	if c.quick {
		return "quick"
	}
	return "gated"
}

// result is everything one pass measured.
type result struct {
	workload string
	scale    string
	seed     int64

	lat       [numKinds][]float64 // ms, per op
	busy      [numKinds]time.Duration
	attempted int
	failed    int
	errs      []string

	setupS     []float64
	liveHeapMB float64 // after set-up and warm-up, forced GC
	heapGrowth int64   // live-heap bytes gained over the measured section
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPauseNS  uint64
	inputHash  string // generated document and op list
	docHash    string // final document
	drawn      int    // statements drawn from the generator, warm-up and log tail included

	// Traced pass only.
	rec         *recorder
	stats       [numKinds]relational.Stats
	walAppend   metrics.HistogramSnapshot // deltas over the measured section
	walFsync    metrics.HistogramSnapshot
	probes      probes
	mappingMS   float64
	loadTuples  float64 // tuples per second
	asrBuildMS  float64
	rawWalUS    float64
	relReopenMS float64

	// Filled by instance.finish.
	walBytes, diskBytes, xmlBytes int64
	reopenS                       []float64
	ckptMS                        []float64
	stratMS                       [][]float64
	restoreMS                     []float64
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// failAll records a document-level mismatch: no op of the run can be trusted.
func (r *result) failAll(err error) {
	r.failed = max(r.attempted, 1)
	r.errs = append([]string{err.Error()}, r.errs...)
}

func (r *result) ops(k opKind) int { return len(r.lat[k]) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func hashString(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// probeEvery is how many reads pass between outer-union probes in the traced
// run; probes are untimed but do disturb the buffer pool, so they stay rare.
const probeEvery = 10

// keepOps is how many ops' raw spans go to the trace file.
const keepOps = 400

// run sets the workload up, warms it, measures it and checks it.
func run(cfg runCfg) (*result, error) {
	sc := cfg.scale()
	res := &result{workload: cfg.def.name, scale: cfg.scaleName(), seed: cfg.seed}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder(keepOps)
		res.rec = rec
	}

	// Set-up: generated document → store ready, repeated for a median. Every
	// instance but the last is discarded.
	dir := filepath.Join(cfg.tmp, fmt.Sprintf("%s-%d", cfg.def.name, os.Getpid()))
	var inst instance
	for i := 0; i < max(cfg.setups, 1); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		rec.startOp("setup")
		t0 := time.Now()
		sp := rec.begin("engine.Open")
		var err error
		inst, err = cfg.def.open(sc, cfg.seed, dir)
		rec.end(sp)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		rec.finishOp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	inst.prepare()
	if cfg.traced {
		if err := setupProbes(rec, cfg, inst.document(), res); err != nil {
			return nil, err
		}
	}

	inputs := sha256.New()
	inputs.Write([]byte(inst.document().String()))
	step := func(rec *recorder, i int) (op, time.Duration, error) {
		o := inst.next(i)
		fmt.Fprintf(inputs, "%d %s\n", o.kind, o.text)
		d, err := inst.exec(rec, &o)
		return o, d, err
	}

	// Warm-up, unrecorded: plan caches, prepared statements and the pool
	// fill; then the store must equal the DOM oracle fed the same statement
	// texts.
	for i := 0; i < sc.warmup; i++ {
		if _, _, err := step(nil, i); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	if err := inst.mirror(); err != nil {
		return nil, fmt.Errorf("after warm-up: %w", err)
	}
	if !cfg.domFull {
		inst.dropOracle()
	}
	if cfg.traced {
		for _, s := range inst.stores() {
			defer s.OnTrace(rec.onTrace)()
		}
	}

	// Measured section.
	inst.beginTimed()
	var m0, m1 runtime.MemStats
	var met0 metrics.Snapshot
	if cfg.traced {
		met0 = inst.stores()[0].Metrics()
	}
	// Live heap is read here, after a fixed number of ops, and not at the end
	// of the measured section: the store's heap grows with every update, so
	// at the end of a time-bounded run it would measure how many ops fit in.
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res.liveHeapMB = float64(m0.HeapAlloc) / (1 << 20)
	limit := time.Duration(cfg.seconds * float64(time.Second))
	reads := 0
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.maxOps > 0 {
			if i >= cfg.maxOps {
				break
			}
		} else if time.Since(start) >= limit {
			break
		}
		var before relational.Stats
		if cfg.traced {
			before = sumStats(inst)
		}
		o, d, err := step(rec, sc.warmup+i)
		if cfg.traced {
			addStats(&res.stats[o.kind], sumStats(inst), before)
			rec.finishOp()
		}
		res.lat[o.kind] = append(res.lat[o.kind], ms(d))
		res.busy[o.kind] += d
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", i, err))
		}
		if cfg.traced && o.kind == opRead {
			if reads%probeEvery == 0 {
				if err := inst.probe(rec, &o, &res.probes); err != nil {
					return nil, fmt.Errorf("outer-union probe: %w", err)
				}
				rec.finishOp()
			}
			reads++
		}
	}
	res.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	if cfg.traced {
		met1 := inst.stores()[0].Metrics()
		res.walAppend = histDelta(met1.Histograms["wal_append_ns"], met0.Histograms["wal_append_ns"])
		res.walFsync = histDelta(met1.Histograms["wal_fsync_ns"], met0.Histograms["wal_fsync_ns"])
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapGrowth = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)

	if err := inst.finish(res); err != nil {
		res.failAll(err)
	}
	if cfg.domFull {
		if err := inst.mirror(); err != nil {
			res.failAll(err)
		}
	}
	res.inputHash = hashSum(inputs)
	err := inst.close()
	inst = nil
	return res, err
}

func hashSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// sumStats adds the work counters of every store of the instance.
func sumStats(inst instance) relational.Stats {
	var out relational.Stats
	for _, s := range inst.stores() {
		addStats(&out, s.DB.Stats(), relational.Stats{})
	}
	return out
}

// addStats does dst += after - before, field by field; Stats is all int64.
func addStats(dst *relational.Stats, after, before relational.Stats) {
	d, a, b := reflect.ValueOf(dst).Elem(), reflect.ValueOf(after), reflect.ValueOf(before)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(d.Field(i).Int() + a.Field(i).Int() - b.Field(i).Int())
	}
}

func histDelta(after, before metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	return metrics.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
}

// setupProbes times the layers under engine.Open by calling them directly on
// a scratch database: the DTD mapping, the shred-and-load, the ASR build, and
// (directory workloads) the log's append-and-fsync floor.
func setupProbes(rec *recorder, cfg runCfg, doc *xmltree.Document, res *result) error {
	sc := cfg.scale()
	rec.startOp("setup")
	defer rec.finishOp()
	root := rec.begin("op.setup-probe")
	defer rec.end(root)

	t0 := time.Now()
	sp := rec.begin("shred.BuildMapping")
	m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{OrderColumn: true})
	rec.end(sp)
	if err != nil {
		return err
	}
	res.mappingMS = ms(time.Since(t0))

	db := relational.NewDB()
	t0 = time.Now()
	sp = rec.begin("shred.Load")
	ds, err := shred.Load(db, m, doc)
	rec.end(sp)
	if err != nil {
		return err
	}
	res.loadTuples = float64(ds.TupleCount()) / time.Since(t0).Seconds()

	if sc.sf > 0 { // only the bulk workload has ASR strategies
		t0 = time.Now()
		sp = rec.begin("asr.Build")
		_, err = asr.Build(db, m)
		rec.end(sp)
		if err != nil {
			return err
		}
		res.asrBuildMS = ms(time.Since(t0))
	}
	if sc.ckptEvery > 0 {
		if res.rawWalUS, err = rawWalProbe(filepath.Join(cfg.tmp, fmt.Sprintf("rawwal-%d", os.Getpid()))); err != nil {
			return err
		}
	}
	return nil
}

// rawWalProbe measures one small commit record appended and made durable on a
// scratch log: what the device charges before the store adds anything.
func rawWalProbe(dir string) (float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	if err := l.Replay(func(uint64, []wal.Stmt) error { return nil }); err != nil {
		return 0, err
	}
	rec := []wal.Stmt{{SQL: "UPDATE publication SET title = ? WHERE id = ?"}}
	var us []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		lsn, err := l.Append(rec, 0)
		if err != nil {
			return 0, err
		}
		if err := l.WaitDurable(lsn); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}
