package relational

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestTraceHookPhases: a registered hook sees one span per statement with
// the right kind, cache-hit flag, row count, and stats delta; with no hook
// registered nothing fires.
func TestTraceHookPhases(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE item (id INTEGER, name VARCHAR(20))`)

	var got []*QueryTrace
	cancel := db.OnTrace(func(qt *QueryTrace) { got = append(got, qt) })

	db.MustExec(`INSERT INTO item VALUES (1, 'a')`)
	db.MustExec(`INSERT INTO item VALUES (2, 'b')`)
	if _, err := db.Query(`SELECT id FROM item`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryEach(`SELECT id FROM item`, func([]Value) error { return nil }); err != nil {
		t.Fatal(err)
	}

	if len(got) != 4 {
		t.Fatalf("%d traces, want 4", len(got))
	}
	ins1, ins2, q, qe := got[0], got[1], got[2], got[3]
	if ins1.Kind != "exec" || ins1.Rows != 1 || ins1.CacheHit {
		t.Errorf("first insert: kind=%q rows=%d hit=%v, want exec/1/false", ins1.Kind, ins1.Rows, ins1.CacheHit)
	}
	if !ins2.CacheHit {
		t.Error("second insert missed the shape cache")
	}
	if ins1.Stats.RowsInserted != 1 {
		t.Errorf("insert stats delta RowsInserted=%d, want 1", ins1.Stats.RowsInserted)
	}
	if q.Kind != "query" || q.Rows != 2 {
		t.Errorf("query: kind=%q rows=%d, want query/2", q.Kind, q.Rows)
	}
	if q.Stats.RowsScanned != 2 {
		t.Errorf("query stats delta RowsScanned=%d, want 2", q.Stats.RowsScanned)
	}
	if qe.Kind != "query-each" || qe.Rows != 2 {
		t.Errorf("query-each: kind=%q rows=%d, want query-each/2", qe.Kind, qe.Rows)
	}
	for _, qt := range got {
		if qt.Total <= 0 {
			t.Errorf("%s: non-positive Total %v", qt.Kind, qt.Total)
		}
		if qt.Err != "" {
			t.Errorf("%s: unexpected error %q", qt.Kind, qt.Err)
		}
	}

	// After cancel, nothing fires and the atomic gate is fully off again.
	cancel()
	if db.obs.Load() != nil {
		t.Error("observability state not nil after last hook cancelled")
	}
	db.MustExec(`INSERT INTO item VALUES (3, 'c')`)
	if len(got) != 4 {
		t.Errorf("hook fired after cancel: %d traces", len(got))
	}
}

// TestTraceReadExecutePhase: traced Query and QueryEach spans time their
// executor run as Execute, and the read phases never exceed the span.
func TestTraceReadExecutePhase(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE item (id INTEGER, grp INTEGER)`)
	for b := 0; b < 10; b++ {
		vals := make([]string, 100)
		for i := range vals {
			id := b*100 + i
			vals[i] = fmt.Sprintf("(%d, %d)", id, id%7)
		}
		db.MustExec(`INSERT INTO item VALUES ` + strings.Join(vals, ", "))
	}
	var got []*QueryTrace
	defer db.OnTrace(func(qt *QueryTrace) { got = append(got, qt) })()

	const q = `SELECT id FROM item WHERE grp >= 0`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryEach(q, func([]Value) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d traces, want 2", len(got))
	}
	for _, qt := range got {
		if qt.Rows != 1000 {
			t.Errorf("%s: rows=%d, want 1000", qt.Kind, qt.Rows)
		}
		if qt.Execute <= 0 {
			t.Errorf("%s: Execute = %v, want > 0", qt.Kind, qt.Execute)
		}
		if sum := qt.Parse + qt.LockWait + qt.Execute; sum > qt.Total {
			t.Errorf("%s: Parse+LockWait+Execute = %v exceeds Total %v", qt.Kind, sum, qt.Total)
		}
	}
}

// TestTraceEveryDoor: each statement door — Exec, Query and QueryEach on a
// DB and on a Tx, with and without `?` args — plus Commit and
// ExplainAnalyze emits exactly one span of its documented kind, and the
// non-commit spans count exactly the statements Stats counts.
func TestTraceEveryDoor(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE item (id INTEGER, name VARCHAR(20))`)
	db.MustExec(`INSERT INTO item VALUES (1, 'a')`)
	var spans []*QueryTrace
	defer db.OnTrace(func(qt *QueryTrace) { spans = append(spans, qt) })()
	each := func([]Value) error { return nil }
	var tx *Tx
	doors := []struct {
		kind string
		run  func() error
	}{
		{"exec", func() error { _, err := db.Exec(`INSERT INTO item VALUES (2, 'b')`); return err }},
		{"exec", func() error { _, err := db.Exec(`INSERT INTO item VALUES (?, ?)`, Int(3), Text("c")); return err }},
		{"query", func() error { _, err := db.Query(`SELECT id FROM item`); return err }},
		{"query", func() error { _, err := db.Query(`SELECT id FROM item WHERE id = ?`, Int(2)); return err }},
		{"query-each", func() error { _, err := db.QueryEach(`SELECT id FROM item`, each); return err }},
		{"query-each", func() error { _, err := db.QueryEach(`SELECT id FROM item WHERE id = ?`, each, Int(2)); return err }},
		{"analyze", func() error { _, err := db.ExplainAnalyze(`SELECT id FROM item WHERE id = 1`); return err }},
		{"analyze", func() error { _, err := db.ExplainAnalyze(`UPDATE item SET name = 'z' WHERE id = 1`); return err }},
		{"tx-exec", func() error { tx = db.Begin(); _, err := tx.Exec(`INSERT INTO item VALUES (4, 'd')`); return err }},
		{"tx-exec", func() error { _, err := tx.Exec(`INSERT INTO item VALUES (?, ?)`, Int(5), Text("e")); return err }},
		{"tx-query", func() error { _, err := tx.Query(`SELECT id FROM item`); return err }},
		{"tx-query", func() error { _, err := tx.Query(`SELECT id FROM item WHERE id = ?`, Int(5)); return err }},
		{"tx-query-each", func() error { _, err := tx.QueryEach(`SELECT id FROM item`, each); return err }},
		{"tx-query-each", func() error { _, err := tx.QueryEach(`SELECT id FROM item WHERE id = ?`, each, Int(5)); return err }},
		{"tx-commit", func() error { return tx.Commit() }},
	}
	before := db.Stats().Statements
	stmts := 0
	for i, d := range doors {
		n := len(spans)
		if err := d.run(); err != nil {
			t.Fatalf("door %d (%s): %v", i, d.kind, err)
		}
		if len(spans) != n+1 || spans[n].Kind != d.kind || spans[n].Err != "" {
			t.Errorf("door %d: spans %+v, want one %s span", i, spans[n:], d.kind)
		}
		if d.kind != "tx-commit" {
			stmts++
		}
	}
	if got := db.Stats().Statements - before; got != int64(stmts) {
		t.Errorf("Stats.Statements moved by %d over %d non-commit spans", got, stmts)
	}
}

// TestTracePreparedAndTx: a `?` execution traces like any Exec, and the
// transaction paths carry their own span kinds.
func TestTracePreparedAndTx(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE item (id INTEGER)`)
	var kinds []string
	defer db.OnTrace(func(qt *QueryTrace) { kinds = append(kinds, qt.Kind) })()

	if _, err := db.Exec(`INSERT INTO item VALUES (?)`, Int(1)); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO item VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	want := []string{"exec", "tx-exec", "tx-commit"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("span kinds = %v, want %v", kinds, want)
	}
}

// TestTraceDurablePhases: against a durable store the commit path records
// Commit and the trace survives the fsync wait; engine metrics pick up the
// sync-mode-named commit histogram and WAL timings.
func TestTraceDurablePhases(t *testing.T) {
	dir := t.TempDir()
	db := mustOpenDB(t, dir, Options{Sync: SyncAlways})
	defer db.Close()
	var spans []*QueryTrace
	defer db.OnTrace(func(qt *QueryTrace) { spans = append(spans, qt) })()

	db.MustExec(`CREATE TABLE item (id INTEGER)`)
	db.MustExec(`INSERT INTO item VALUES (1)`)

	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	ins := spans[1]
	if ins.Commit <= 0 {
		t.Errorf("insert Commit span = %v, want > 0", ins.Commit)
	}
	snap := db.Metrics()
	h, ok := snap.Histograms["commit_ns_always"]
	if !ok || h.Count < 2 {
		t.Errorf("commit_ns_always = %+v (ok=%v), want count >= 2", h, ok)
	}
	if wa, ok := snap.Histograms["wal_append_ns"]; !ok || wa.Count < 2 {
		t.Errorf("wal_append_ns = %+v (ok=%v), want count >= 2", wa, ok)
	}
	if wf, ok := snap.Histograms["wal_fsync_ns"]; !ok || wf.Count == 0 {
		t.Errorf("wal_fsync_ns = %+v (ok=%v), want count > 0", wf, ok)
	}
}

// TestMetricsJSON: WriteMetrics emits one flat JSON object; the always-on
// engine histograms are present without any tracing enabled.
func TestMetricsJSON(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE item (id INTEGER)`)
	db.MustExec(`INSERT INTO item VALUES (1)`)

	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("WriteMetrics emitted invalid JSON: %v\n%s", err, buf.String())
	}
	h, ok := m["commit_ns_mem"].(map[string]any)
	if !ok {
		t.Fatalf("commit_ns_mem missing or not an object: %v", m["commit_ns_mem"])
	}
	if c, _ := h["count"].(float64); c < 2 {
		t.Errorf("commit_ns_mem count = %v, want >= 2", h["count"])
	}
	if _, ok := m["stmt_lock_wait_ns"]; !ok {
		t.Error("stmt_lock_wait_ns missing from dump")
	}
}

// TestTraceOffZeroState: with tracing off the per-statement gate stays a
// nil pointer — no span allocation anywhere on the path.
func TestTraceOffZeroState(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE item (id INTEGER)`)
	if qt := db.traceBegin("exec", "x"); qt != nil {
		t.Fatal("traceBegin returned a span with tracing off")
	}
	db.traceFinish(nil, 0, nil) // must be a no-op, not a panic
}
