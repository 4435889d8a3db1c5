package engine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/relational"
)

// TestStoreExplainAnalyze: EXPLAIN ANALYZE through the store's relational
// substrate; an analyzed scan over a shredded table carries actual row
// counts.
func TestStoreExplainAnalyze(t *testing.T) {
	s := openCust(t, Options{})
	tbl := s.M.Table("Customer").Name
	out, err := s.DB.ExplainAnalyze("SELECT id FROM " + tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(actual ") {
		t.Errorf("no actuals in analyzed plan:\n%s", out)
	}
	if !strings.Contains(out, "Execution: rows=") {
		t.Errorf("no execution footer:\n%s", out)
	}
}

// TestStoreTracing: an XML-level update fans out into traced SQL
// statements; the store-level hook observes them and the metrics dump stays
// valid JSON.
func TestStoreTracing(t *testing.T) {
	s := openCust(t, Options{})
	var n int
	cancel := s.OnTrace(func(qt *relational.QueryTrace) { n++ })
	if _, err := s.DeleteSubtrees("Customer", "Name_v = 'John'"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if n == 0 {
		t.Error("delete produced no trace spans")
	}
	var buf bytes.Buffer
	if err := s.DB.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("invalid metrics JSON: %v", err)
	}
	if _, ok := m["commit_ns_mem"]; !ok {
		t.Error("commit histogram missing from store metrics dump")
	}
}

// TestStoreReconstructTraced: Store.Reconstruct reads every data table of
// the customer database through its snapshot transaction, and each read is
// one traced tx-query-each span; together the spans account for every row
// the call scanned.
func TestStoreReconstructTraced(t *testing.T) {
	s := openCust(t, Options{})
	var spans []*relational.QueryTrace
	cancel := s.OnTrace(func(qt *relational.QueryTrace) { spans = append(spans, qt) })
	defer cancel()
	before := s.DB.Stats()
	if _, err := s.Reconstruct(); err != nil {
		t.Fatal(err)
	}
	scanned := s.DB.Stats().RowsScanned - before.RowsScanned
	if len(spans) != 4 {
		t.Fatalf("Reconstruct emitted %d spans, want 4 (one per table)", len(spans))
	}
	var sum int64
	for _, qt := range spans {
		if qt.Kind != "tx-query-each" {
			t.Errorf("span %q has kind %q, want tx-query-each", qt.SQL, qt.Kind)
		}
		sum += qt.Stats.RowsScanned
	}
	if sum != scanned || scanned == 0 {
		t.Errorf("spans scanned %d rows, the call's Stats delta %d", sum, scanned)
	}
}
