package wal

import (
	"reflect"
	"strings"
	"testing"
)

// kind1Payload rewrites a v2 commit payload into the retired kind-1 shape:
// the same lsn and statements, kind byte 1, and no commit stamp.
func kind1Payload(v2 []byte) []byte {
	v1 := append([]byte(nil), v2[:9]...)
	v1[8] = 1
	return append(v1, v2[17:]...)
}

// TestDecodeCommitRejectsKind1: the pre-stamp record kind is no longer a
// recovery input; a kind-1 payload is an unknown record, not a commit
// replayed with stamp 0.
func TestDecodeCommitRejectsKind1(t *testing.T) {
	payload, err := encodeCommit(7, 42, []Stmt{{SQL: "INSERT INTO t VALUES (?)", Args: []Value{{Kind: KindInt, Int: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeCommit(payload); err != nil {
		t.Fatalf("v2 payload: %v", err)
	}
	_, _, _, err = DecodeCommit(kind1Payload(payload))
	if err == nil || !strings.Contains(err.Error(), "unknown record kind 1") {
		t.Fatalf("kind-1 payload: err = %v, want unknown record kind", err)
	}
}

// FuzzDecodeCommit drives random byte corruption through the record
// decoder: any input must either decode cleanly or return an error — never
// panic, never over-allocate from an attacker-controlled length field. A
// valid record that decodes is additionally required to re-encode to a
// decodable equivalent (round-trip stability).
func FuzzDecodeCommit(f *testing.F) {
	seedRecords := [][]Stmt{
		{},
		{{SQL: "INSERT INTO t VALUES (?, ?)", Args: []Value{{Kind: KindInt, Int: 1}, {Kind: KindText, Str: "x"}}}},
		{{SQL: "CREATE TABLE t (id INTEGER)"}, {SQL: "DELETE FROM t", Args: []Value{{}}}},
		{{SQL: "UPDATE t SET v = ?", Args: []Value{{Kind: KindText, Str: "quote''d"}, {Kind: KindInt, Int: -5}, {}}}},
	}
	for _, rec := range seedRecords {
		payload, err := encodeCommit(7, 42, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		// Also seed the framed form so the frame reader gets coverage.
		f.Add(frame(payload))
		// And the retired kind-1 (pre-stamp) shape: v2 framing minus the
		// stamp, with the kind byte rewritten. The decoder must reject it.
		f.Add(kind1Payload(payload))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The frame reader must reject or accept without panicking.
		if payload, rest, ok := readFrame(data); ok {
			_ = rest
			_, _, _, _ = DecodeCommit(payload)
		}
		lsn, stamp, stmts, err := DecodeCommit(data)
		if err != nil {
			return
		}
		// Valid decode: re-encoding must round-trip.
		re, err := encodeCommit(lsn, stamp, stmts)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		lsn2, stamp2, stmts2, err := DecodeCommit(re)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if lsn2 != lsn || stamp2 != stamp || !reflect.DeepEqual(stmts2, stmts) {
			t.Fatalf("round-trip mismatch")
		}
	})
}
