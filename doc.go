// Package repro is a from-scratch Go reproduction of "Updating XML"
// (Tatarinov, Ives, Halevy, Weld — SIGMOD 2001): the XML update language
// (primitive operations and XQuery extensions), a direct-DOM update engine,
// an XML-to-relational storage layer with Shared Inlining, Sorted Outer
// Union and Access Support Relations, the paper's delete and insert
// translation strategies, and the full experimental evaluation.
//
// See README.md for a tour and DESIGN.md for the system inventory and the
// relational layer's three-layer query pipeline. The paper's figures and
// tables are regenerated as exact-count laws by internal/engine's
// figures_test.go; benchmark/ measures wall time.
package repro
