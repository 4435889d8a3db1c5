package engine

import (
	"repro/internal/metrics"
	"repro/internal/relational"
)

// The store's relational substrate carries the instrumentation (EXPLAIN
// ANALYZE, query tracing, latency histograms); XML-level tooling reaches it
// through s.DB. The two methods below exist for callers that hold only a
// Store.

// OnTrace registers fn to receive a QueryTrace span after every statement;
// the returned function unregisters it.
func (s *Store) OnTrace(fn func(*relational.QueryTrace)) func() { return s.DB.OnTrace(fn) }

// Metrics snapshots the engine's latency histograms and intent-retry count.
func (s *Store) Metrics() metrics.Snapshot { return s.DB.Metrics() }
