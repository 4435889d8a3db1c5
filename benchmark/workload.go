package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/outerunion"
	"repro/internal/relational"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// scale sizes one workload. The gated scale is what BENCHMARK.json's bounds
// were measured at; the quick scale is for iterating and for the tests.
type scale struct {
	confs, pubsPerConf int // DBLP document
	sf                 int // Fixed document: subtrees of depth 4, fanout 4
	warmup             int // untimed leading ops
	ckptEvery          int // updates between explicit checkpoints
	tailOps            int // updates logged after the last checkpoint before the kill-style copy
}

// workloadDef is one workload: what it is, why it exists, and how to open it.
type workloadDef struct {
	name, why   string
	full, quick scale
	open        func(sc scale, seed int64, dir string) (instance, error)
}

// instance is a workload set up and ready to run. next and exec are the
// closed loop: the runner asks for the i-th op and executes it before asking
// for the next.
type instance interface {
	stores() []*engine.Store
	document() *xmltree.Document
	// prepare does the benchmark's own bookkeeping (model, DOM copy,
	// snapshots) that is not part of bringing the store up.
	prepare()
	next(i int) op
	// exec runs one op and returns the time spent inside the store. Result
	// checks run outside the timed window; a wrong result is an error.
	exec(rec *recorder, o *op) (time.Duration, error)
	// probe repeats a read through the split outer-union path, untimed.
	probe(rec *recorder, o *op, pr *probes) error
	// mirror holds the store against the DOM oracle, byte for byte.
	mirror() error
	// dropOracle releases the DOM oracle and the generated document, so a
	// gated run's live heap is the store's and not the benchmark's; mirror
	// must not be called afterwards.
	dropOracle()
	beginTimed()
	// finish runs the end-of-run checks and storage measurements.
	finish(res *result) error
	close() error
}

var workloads = []*workloadDef{
	{
		name: "stmt_point_mem",
		why:  "point statements on a memory store: one publication or conference per op, found by full scan (no value index on @key or name); relational execution sets the cost, wal and pager do nothing",
		full: scale{confs: 48, pubsPerConf: 60, warmup: 2000}, quick: scale{confs: 8, pubsPerConf: 20, warmup: 100},
		open: func(sc scale, seed int64, _ string) (instance, error) { return openDBLP(sc, seed, "", 0, false) },
	},
	{
		name: "bulk_strategy_mem",
		why:  "the paper's Figure 8/10 regime: every tuple touched by each of the seven delete/insert strategies; scans, anti-joins, triggers dominate",
		full: scale{sf: 40, warmup: 4}, quick: scale{sf: 6, warmup: 2},
		open: openBulk,
	},
	{
		name:  "scan_paged_cold",
		why:   "paged store with a 64-page pool under a 452-page file: page reads, eviction and outer-union assembly dominate; updates compete for frames",
		full:  scale{confs: 144, pubsPerConf: 60, warmup: 40, ckptEvery: 50, tailOps: 25},
		quick: scale{confs: 40, pubsPerConf: 60, warmup: 8, ckptEvery: 25, tailOps: 5},
		open:  func(sc scale, seed int64, dir string) (instance, error) { return openDBLP(sc, seed, dir, 64, true) },
	},
	{
		name:  "durable_mix_paged",
		why:   "the stmt_point_mem statements on a paged store that fits its pool, SyncAlways: isolates WAL append, fsync, checkpoint stalls and recovery",
		full:  scale{confs: 48, pubsPerConf: 60, warmup: 300, ckptEvery: 2000, tailOps: 100},
		quick: scale{confs: 8, pubsPerConf: 20, warmup: 40, ckptEvery: 100, tailOps: 10},
		open:  func(sc scale, seed int64, dir string) (instance, error) { return openDBLP(sc, seed, dir, 1024, false) },
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- DBLP statement workloads ----

const pageSize = 4096

// dblpInst is a DBLP document in one store, driven by statement text. It
// serves stmt_point_mem (memory), durable_mix_paged and scan_paged_cold
// (directory-backed, dir != "").
type dblpInst struct {
	sc    scale
	seed  int64
	store *engine.Store
	doc   *xmltree.Document
	dir   string
	dopts relational.Options
	scan  bool // scanMix instead of pointMix

	model *dblpModel
	gen   int // ops drawn from the model so far

	// DOM oracle: update texts not yet applied to dom. ev == nil once the
	// oracle has been dropped.
	ev      *xquery.Evaluator
	dom     *xmltree.Document
	pending []string

	sinceCkpt int // updates since the last checkpoint
	// Log bytes appended since beginTimed, sampled from the segment files
	// around each checkpoint (a checkpoint prunes covered segments).
	walBase, walAppended int64
	ckptMS               []float64
}

// genDBLP generates the seed's bibliography and trims it to five sixths of
// its expected publication count. datagen draws each conference's size at
// random, so untrimmed documents differ in size by several percent from seed
// to seed, and every scan-bound metric with them; trimmed, a seed changes the
// content and the shape but not the size. Publications come off the ends of
// the conferences in turn, so conference sizes stay as uneven as generated.
func genDBLP(sc scale, seed int64) *xmltree.Document {
	doc := datagen.DBLP(datagen.DBLPParams{Conferences: sc.confs, PubsPerConf: sc.pubsPerConf, Seed: seed})
	confs := doc.Root.ChildElementsNamed("conference")
	pubs := make([][]*xmltree.Element, len(confs))
	total := 0
	for i, c := range confs {
		pubs[i] = c.ChildElementsNamed("publication")
		total += len(pubs[i])
	}
	for i := 0; total > sc.confs*sc.pubsPerConf*5/6; i = (i + 1) % len(confs) {
		if n := len(pubs[i]); n > 1 {
			confs[i].RemoveChild(pubs[i][n-1])
			pubs[i] = pubs[i][:n-1]
			total--
		}
	}
	return doc
}

func openDBLP(sc scale, seed int64, dir string, poolPages int, scan bool) (instance, error) {
	in := &dblpInst{sc: sc, seed: seed, dir: dir, scan: scan}
	in.doc = genDBLP(sc, seed)
	opts := engine.Options{OrderColumn: true}
	var err error
	if dir == "" {
		in.store, err = engine.Open(in.doc, opts)
		return in, err
	}
	// CheckpointBytes -1: only the explicit, timed checkpoints run, so
	// every stall is an op the benchmark sees.
	in.dopts = relational.Options{
		Sync: relational.SyncAlways, CheckpointBytes: -1,
		Storage: relational.StoragePaged, PageSize: pageSize, PoolPages: poolPages,
	}
	in.store, err = engine.OpenDir(dir, in.doc, opts, in.dopts)
	return in, err
}

func (in *dblpInst) stores() []*engine.Store     { return []*engine.Store{in.store} }
func (in *dblpInst) document() *xmltree.Document { return in.doc }

func (in *dblpInst) prepare() {
	in.model = newDBLPModel(in.doc, in.seed)
	in.dom = genDBLP(in.sc, in.seed)
	in.ev = xquery.NewEvaluator(in.dom)
}

func (in *dblpInst) next(int) op {
	if in.dir != "" && in.sinceCkpt >= in.sc.ckptEvery {
		return op{kind: opCheckpoint}
	}
	var o op
	if in.scan {
		o = in.model.scanMix(in.gen)
	} else {
		o = in.model.pointMix()
	}
	in.gen++
	return o
}

func (in *dblpInst) dropOracle() { in.doc, in.dom, in.ev, in.pending = nil, nil, nil, nil }

func (in *dblpInst) exec(rec *recorder, o *op) (time.Duration, error) {
	s := in.store
	switch {
	case o.kind == opCheckpoint:
		before := walBytes(in.dir)
		rec.startOp("checkpoint")
		t0 := time.Now()
		sp := rec.begin("engine.Checkpoint")
		err := s.Checkpoint()
		rec.end(sp)
		d := time.Since(t0)
		in.walAppended += before - in.walBase
		in.walBase = walBytes(in.dir)
		in.sinceCkpt = 0
		in.ckptMS = append(in.ckptMS, ms(d))
		return d, err

	case o.kind == opUpdate:
		rec.startOp("update")
		t0 := time.Now()
		root := rec.begin("op.update")
		sp := rec.begin("xquery.Parse")
		stmt, err := xquery.Parse(o.text)
		rec.end(sp)
		n := 0
		if err == nil {
			sp = rec.begin("engine.Exec")
			n, err = s.Exec(stmt)
			rec.end(sp)
		}
		rec.end(root)
		d := time.Since(t0)
		in.sinceCkpt++
		if in.ev != nil {
			in.pending = append(in.pending, o.text)
		}
		if err == nil && n != 1 {
			err = fmt.Errorf("update applied to %d targets, want 1: %s", n, o.text)
		}
		return d, err

	case o.text == "":
		return timedReconstruct(rec, s, o.want.count)

	default:
		rec.startOp("read")
		t0 := time.Now()
		root := rec.begin("op.read")
		sp := rec.begin("xquery.Parse")
		stmt, err := xquery.Parse(o.text)
		rec.end(sp)
		var els []*xmltree.Element
		if err == nil {
			sp = rec.begin("engine.QuerySubtrees")
			els, err = s.QuerySubtrees(stmt)
			rec.end(sp)
		}
		rec.end(root)
		d := time.Since(t0)
		if err == nil {
			err = checkRead(els, o.want)
		}
		return d, err
	}
}

// timedReconstruct is the full-document read op: Store.Reconstruct timed,
// the number of top-level children checked afterwards.
func timedReconstruct(rec *recorder, s *engine.Store, children int) (time.Duration, error) {
	rec.startOp("read")
	t0 := time.Now()
	sp := rec.begin("engine.Reconstruct")
	doc, err := s.Reconstruct()
	rec.end(sp)
	d := time.Since(t0)
	if err == nil {
		if n := len(doc.Root.ChildElements()); n != children {
			err = fmt.Errorf("reconstructed document has %d top-level children, want %d", n, children)
		}
	}
	return d, err
}

func checkRead(els []*xmltree.Element, w expect) error {
	if len(els) != 1 {
		return fmt.Errorf("read returned %d subtrees, want 1", len(els))
	}
	e := els[0]
	if w.key != "" {
		return checkPub(e, w)
	}
	var name string
	if n := e.FirstChildNamed("name"); n != nil {
		name = n.TextContent()
	}
	if p := len(e.ChildElementsNamed("publication")); name != w.name || p != w.count {
		return fmt.Errorf("conference read: got name=%q publications=%d, want name=%q publications=%d", name, p, w.name, w.count)
	}
	return nil
}

// probes collects the traced run's untimed outer-union split.
type probes struct {
	sqlMS, assembleMS []float64
	rows, elements    int
}

// outerUnionProbe runs one subtree read as its four public steps, so the time
// Store.QuerySubtrees spends in SQL can be told from the time it spends
// assembling elements.
func outerUnionProbe(rec *recorder, s *engine.Store, elem, where string, pr *probes) error {
	rec.startOp("probe")
	root := rec.begin("op.probe")
	defer rec.end(root)
	sp := rec.begin("outerunion.BuildPlan")
	plan, err := outerunion.BuildPlan(s.M, elem)
	rec.end(sp)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sp = rec.begin("outerunion.SQL")
	sql := plan.SQL(where)
	rec.end(sp)
	sp = rec.begin("relational.Query")
	rows, err := s.DB.Query(sql)
	rec.end(sp)
	if err != nil {
		return err
	}
	t1 := time.Now()
	sp = rec.begin("outerunion.Reconstruct")
	subs, err := plan.Reconstruct(rows)
	rec.end(sp)
	if err != nil {
		return err
	}
	pr.sqlMS = append(pr.sqlMS, ms(t1.Sub(t0)))
	pr.assembleMS = append(pr.assembleMS, ms(time.Since(t1)))
	pr.rows += len(rows.Data)
	for _, st := range subs {
		pr.elements += st.Root.Size()
	}
	return nil
}

func (in *dblpInst) probe(rec *recorder, o *op, pr *probes) error {
	if o.probeElem == "" {
		return nil
	}
	var path []string
	if o.probeChild != "" {
		path = []string{o.probeChild}
	}
	col := in.store.M.FindColumn(o.probeElem, path, o.probeAttr)
	if col == nil {
		return fmt.Errorf("probe: no column for %s/%s@%s", o.probeElem, o.probeChild, o.probeAttr)
	}
	where := fmt.Sprintf("%s = %s", col.Name, relational.FormatValue(relational.Text(o.probeVal)))
	return outerUnionProbe(rec, in.store, o.probeElem, where, pr)
}

// replayPending applies the update texts kept since the last replay to the
// DOM copy.
func (in *dblpInst) replayPending() error {
	for _, q := range in.pending {
		r, err := in.ev.ExecString(q)
		if err != nil {
			return fmt.Errorf("DOM oracle: %w: %s", err, q)
		}
		if r.Tuples != 1 {
			return fmt.Errorf("DOM oracle matched %d tuples, want 1: %s", r.Tuples, q)
		}
	}
	in.pending = in.pending[:0]
	return nil
}

func (in *dblpInst) mirror() error {
	if err := in.replayPending(); err != nil {
		return err
	}
	doc, err := in.store.Reconstruct()
	if err != nil {
		return err
	}
	return sameXML(doc.String(), in.dom.String())
}

func sameXML(got, want string) error {
	if got == want {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(s string) string {
		lo, hi := max(0, i-60), min(len(s), i+60)
		return s[lo:hi]
	}
	return fmt.Errorf("store and DOM oracle differ at byte %d: store …%s… oracle …%s…", i, clip(got), clip(want))
}

func (in *dblpInst) beginTimed() {
	in.ckptMS = in.ckptMS[:0]
	in.walAppended = 0
	if in.dir != "" {
		in.walBase = walBytes(in.dir)
	}
}

// reopenCopies is how many kill-style copies are reopened for reopen_s.
const reopenCopies = 3

func (in *dblpInst) finish(res *result) error {
	defer func() { res.drawn = in.gen }()
	if in.dir == "" {
		doc, err := in.store.Reconstruct()
		if err != nil {
			return err
		}
		res.docHash = hashString(doc.String())
		return in.model.check(doc)
	}
	res.walBytes = in.walAppended + walBytes(in.dir) - in.walBase
	res.ckptMS = append([]float64(nil), in.ckptMS...)

	// A checkpoint followed by a fixed number of further acknowledged
	// updates: recovery then always has the same log tail to replay, however
	// far the timed section got.
	if err := in.store.Checkpoint(); err != nil {
		return err
	}
	in.sinceCkpt = 0 // tailOps <= ckptEvery: the tail stays in the log
	for done := 0; done < in.sc.tailOps; {
		o := in.next(0)
		if _, err := in.exec(nil, &o); err != nil {
			return fmt.Errorf("log-tail op: %w", err)
		}
		if o.kind == opUpdate {
			done++
		}
	}

	// Kill-style: copy the directory while the store is open and has never
	// been closed, then open the copies. Every update above was
	// acknowledged, so every one must be in the reopened document.
	cp := in.dir + "-kill"
	defer os.RemoveAll(cp)
	// The relational layer's share of a reopen: recovery without the
	// engine's mapping rebuild.
	if err := copyDir(in.dir, cp); err != nil {
		return err
	}
	t0 := time.Now()
	db, err := relational.Open(cp, in.dopts)
	if err != nil {
		return fmt.Errorf("relational.Open on kill-style copy: %w", err)
	}
	res.relReopenMS = ms(time.Since(t0))
	if err := db.Close(); err != nil {
		return err
	}
	for i := 0; i < reopenCopies; i++ {
		if err := copyDir(in.dir, cp); err != nil {
			return err
		}
		t0 := time.Now()
		s, err := engine.OpenDir(cp, nil, engine.Options{}, in.dopts)
		if err != nil {
			return fmt.Errorf("OpenDir on kill-style copy: %w", err)
		}
		res.reopenS = append(res.reopenS, time.Since(t0).Seconds())
		if i == 0 {
			err = in.checkRecovered(s, res)
		}
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	if err := in.store.Checkpoint(); err != nil {
		return err
	}
	doc, err := in.store.Reconstruct()
	if err != nil {
		return err
	}
	res.diskBytes = dirBytes(in.dir)
	res.xmlBytes = int64(len(doc.String()))
	return nil
}

// checkRecovered holds the document a reopened kill-style copy reconstructs
// against the model, and in a full-length oracle run against the DOM: the
// recovered document, not the live store, is what must equal it.
func (in *dblpInst) checkRecovered(s *engine.Store, res *result) error {
	doc, err := s.Reconstruct()
	if err != nil {
		return err
	}
	res.docHash = hashString(doc.String())
	if err := in.model.check(doc); err != nil {
		return fmt.Errorf("document recovered from kill-style copy: %w", err)
	}
	if in.ev == nil {
		return nil
	}
	if err := in.replayPending(); err != nil {
		return err
	}
	if err := sameXML(doc.String(), in.dom.String()); err != nil {
		return fmt.Errorf("document recovered from kill-style copy: %w", err)
	}
	return nil
}

func (in *dblpInst) close() error {
	err := in.store.Close()
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// ---- bulk strategy workload ----

type strategy struct {
	name   string // per-layer metric suffix
	span   string
	delete bool
	opts   engine.Options
}

var strategies = []strategy{
	{"delete_per_tuple_trigger_ms", "engine.DeleteSubtrees/per-tuple-trigger", true, engine.Options{Delete: engine.PerTupleTrigger}},
	{"delete_per_stmt_trigger_ms", "engine.DeleteSubtrees/per-stmt-trigger", true, engine.Options{Delete: engine.PerStatementTrigger}},
	{"delete_cascade_ms", "engine.DeleteSubtrees/cascade", true, engine.Options{Delete: engine.CascadingDelete}},
	{"delete_asr_ms", "engine.DeleteSubtrees/asr", true, engine.Options{Delete: engine.ASRDelete}},
	{"insert_tuple_ms", "engine.CopySubtrees/tuple", false, engine.Options{Insert: engine.TupleInsert}},
	{"insert_table_ms", "engine.CopySubtrees/table", false, engine.Options{Insert: engine.TableInsert}},
	{"insert_asr_ms", "engine.CopySubtrees/asr", false, engine.Options{Insert: engine.ASRInsert}},
}

// bulkInst is the fixed synthetic document in seven memory stores, one per
// strategy. An update op is one strategy cycle: each store restored
// (untimed), then its bulk delete or copy of every e1 subtree (timed).
type bulkInst struct {
	sc      scale
	doc     *xmltree.Document
	docXML  string
	st      []*engine.Store
	snaps   []*engine.Snapshot
	tuples  int
	stratMS [][]float64
	restore []float64
}

func openBulk(sc scale, seed int64, _ string) (instance, error) {
	in := &bulkInst{sc: sc}
	in.doc = datagen.Fixed(datagen.FixedParams{ScalingFactor: sc.sf, Depth: 4, Fanout: 4, Seed: seed})
	for _, sg := range strategies {
		o := sg.opts
		o.OrderColumn = true
		s, err := engine.Open(in.doc, o)
		if err != nil {
			return nil, err
		}
		in.st = append(in.st, s)
	}
	return in, nil
}

func (in *bulkInst) stores() []*engine.Store     { return in.st }
func (in *bulkInst) document() *xmltree.Document { return in.doc }

func (in *bulkInst) prepare() {
	in.docXML = in.doc.String()
	in.tuples = in.st[0].TupleCount()
	for _, s := range in.st {
		in.snaps = append(in.snaps, s.Snapshot())
	}
	in.stratMS = make([][]float64, len(strategies))
}

func (in *bulkInst) next(i int) op {
	if i%2 == 0 {
		return op{kind: opUpdate}
	}
	return op{kind: opRead, want: expect{count: in.sc.sf}, probeElem: "e1"}
}

func (in *bulkInst) reset(k int) {
	t0 := time.Now()
	in.st[k].Restore(in.snaps[k])
	in.restore = append(in.restore, ms(time.Since(t0)))
}

func (in *bulkInst) exec(rec *recorder, o *op) (time.Duration, error) {
	if o.kind == opRead {
		in.reset(0)
		return timedReconstruct(rec, in.st[0], o.want.count)
	}
	rec.startOp("update")
	var total time.Duration
	for k, sg := range strategies {
		s := in.st[k]
		in.reset(k)
		var n int
		var err error
		t0 := time.Now()
		sp := rec.begin(sg.span)
		if sg.delete {
			n, err = s.DeleteSubtrees("e1", "")
		} else {
			n, err = s.CopySubtrees("e1", "", 1)
		}
		rec.end(sp)
		d := time.Since(t0)
		total += d
		in.stratMS[k] = append(in.stratMS[k], ms(d))
		if err != nil {
			return total, fmt.Errorf("%s: %w", sg.span, err)
		}
		// One tuple (the root) survives a delete of every e1 subtree; a
		// copy of every subtree under the root doubles all but the root.
		want := 1
		if !sg.delete {
			want = 2*in.tuples - 1
		}
		if got := s.TupleCount(); n != in.sc.sf || got != want {
			return total, fmt.Errorf("%s: %d roots, %d tuples after; want %d roots, %d tuples", sg.span, n, got, in.sc.sf, want)
		}
	}
	return total, nil
}

// probe splits the outer-union read of every e1 subtree: the source read of
// the tuple and table insert strategies.
func (in *bulkInst) probe(rec *recorder, o *op, pr *probes) error {
	in.reset(0)
	return outerUnionProbe(rec, in.st[0], o.probeElem, "", pr)
}

func (in *bulkInst) mirror() error {
	in.reset(0)
	doc, err := in.st[0].Reconstruct()
	if err != nil {
		return err
	}
	return sameXML(doc.String(), in.docXML)
}

// dropOracle keeps docXML: finish holds the restored state against it.
func (in *bulkInst) dropOracle() { in.doc = nil }

func (in *bulkInst) beginTimed() {
	in.restore = in.restore[:0]
	for k := range in.stratMS {
		in.stratMS[k] = in.stratMS[k][:0]
	}
}

func (in *bulkInst) finish(res *result) error {
	res.stratMS = in.stratMS
	res.restoreMS = in.restore
	res.docHash = hashString(in.docXML)
	// Each cycle leaves its stores deleted or doubled; the state every cycle
	// starts from must still be the generated document.
	return in.mirror()
}

func (in *bulkInst) close() error { return nil }

// ---- files ----

func walBytes(dir string) int64 {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	var n int64
	for _, f := range segs {
		if fi, err := os.Stat(f); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func dirBytes(dir string) int64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// copyDir copies a store directory (flat: segments, checkpoints, page files)
// the way a crash leaves it: whatever the files hold now, no Close first. The
// bytes come back from the OS cache, so this proves recovery from the
// acknowledged state, not durability against power loss.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
