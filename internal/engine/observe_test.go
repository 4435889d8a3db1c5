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
