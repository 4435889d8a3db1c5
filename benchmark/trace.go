package main

import (
	"strings"
	"time"

	"repro/internal/relational"
)

// span is one timed call the benchmark made into a layer, or (Name
// "relational.stmt") one SQL statement the engine reported through OnTrace
// while that call was in flight. Times are nanoseconds since the recorder's
// epoch; Parent is an index into the same op's spans, -1 for a root.
type span struct {
	Op     int    `json:"op"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	// Statement spans only: the engine's own phase breakdown.
	SQL       string `json:"sql,omitempty"`
	ParseNS   int64  `json:"parse_ns,omitempty"`
	LockNS    int64  `json:"lock_wait_ns,omitempty"`
	ExecuteNS int64  `json:"execute_ns,omitempty"`
	CommitNS  int64  `json:"commit_ns,omitempty"`
	FsyncNS   int64  `json:"fsync_wait_ns,omitempty"`
}

// stmtSums adds up the engine's per-statement phase times.
type stmtSums struct {
	n                                     int64
	total, parse, lock, exec, commit, fsy int64
}

func (a *stmtSums) add(b stmtSums) {
	a.n += b.n
	a.total += b.total
	a.parse += b.parse
	a.lock += b.lock
	a.exec += b.exec
	a.commit += b.commit
	a.fsy += b.fsy
}

// kindAgg is what the traced run keeps per op kind after an op's spans have
// been folded: self time per span name, and the statement phase sums.
type kindAgg struct {
	self  map[string]int64
	calls map[string]int64
	roots int64 // sum of root span durations
	stmts stmtSums
}

// recorder collects the spans of one op at a time. One closed-loop client
// means at most one op is in flight, so a stack gives every span its parent
// and every OnTrace callback its op. A nil *recorder records nothing: the
// untraced pass runs the same code with rec == nil.
type recorder struct {
	epoch time.Time
	op    int
	kind  string
	cur   []span
	stack []int
	agg   map[string]*kindAgg
	// kept holds the raw spans of the first keepOps ops for the trace file;
	// later ops are folded into agg only, so memory stays bounded.
	kept    []span
	keepOps int
	// overruns counts spans whose children sum to more than the span itself.
	overruns int
}

func newRecorder(keepOps int) *recorder {
	return &recorder{epoch: time.Now(), agg: map[string]*kindAgg{}, keepOps: keepOps}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// startOp names the kind ("update", "read", "checkpoint", "setup", "probe")
// the following spans are accounted under.
func (r *recorder) startOp(kind string) {
	if r == nil {
		return
	}
	r.kind = kind
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.cur = append(r.cur, span{Op: r.op, Kind: r.kind, Name: name, Parent: parent, Start: r.now()})
	i := len(r.cur) - 1
	r.stack = append(r.stack, i)
	return i
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.cur[i].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// onTrace attaches a statement the engine just finished as a child of the
// call in flight. Statements arriving outside any span (restores, untimed
// bookkeeping) are not part of an op and are dropped.
func (r *recorder) onTrace(qt *relational.QueryTrace) {
	if len(r.stack) == 0 {
		return
	}
	start := int64(qt.Start.Sub(r.epoch))
	r.cur = append(r.cur, span{
		Op: r.op, Kind: r.kind, Name: "relational.stmt", Parent: r.stack[len(r.stack)-1],
		Start: start, End: start + int64(qt.Total),
		SQL: qt.SQL, ParseNS: int64(qt.Parse), LockNS: int64(qt.LockWait),
		ExecuteNS: int64(qt.Execute), CommitNS: int64(qt.Commit), FsyncNS: int64(qt.FsyncWait),
	})
}

// finishOp computes each span's self time (duration minus the time its
// children cover), folds the op into the per-kind aggregates and clears the
// buffer for the next op.
func (r *recorder) finishOp() {
	if r == nil {
		return
	}
	for i := range r.cur {
		r.cur[i].Self = r.cur[i].End - r.cur[i].Start
	}
	for i := range r.cur {
		if p := r.cur[i].Parent; p >= 0 {
			r.cur[p].Self -= r.cur[i].End - r.cur[i].Start
		}
	}
	for i := range r.cur {
		s := &r.cur[i]
		a := r.agg[s.Kind]
		if a == nil {
			a = &kindAgg{self: map[string]int64{}, calls: map[string]int64{}}
			r.agg[s.Kind] = a
		}
		if s.Self < 0 {
			r.overruns++
		}
		a.self[s.Name] += s.Self
		a.calls[s.Name]++
		if s.Parent < 0 {
			a.roots += s.End - s.Start
		}
		if s.Name == "relational.stmt" {
			a.stmts.add(stmtSums{1, s.End - s.Start, s.ParseNS, s.LockNS, s.ExecuteNS, s.CommitNS, s.FsyncNS})
		}
	}
	if r.op < r.keepOps {
		r.kept = append(r.kept, r.cur...)
	}
	r.cur = r.cur[:0]
	r.op++
}

func (r *recorder) kindAgg(kind string) *kindAgg {
	if a := r.agg[kind]; a != nil {
		return a
	}
	return &kindAgg{self: map[string]int64{}, calls: map[string]int64{}}
}

// layerOf maps a span name to its layer: the module name before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time by layer over the timed op kinds. The "op" layer
// is the benchmark's own root spans: time inside an op that no layer call
// covers, reported as unattributed.
func (r *recorder) layerSelf() map[string]int64 {
	out := map[string]int64{}
	for _, k := range kindNames {
		for name, ns := range r.kindAgg(k).self {
			out[layerOf(name)] += ns
		}
	}
	return out
}
