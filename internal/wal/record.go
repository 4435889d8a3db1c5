// Package wal implements the durability substrate: a segmented, CRC-checked
// redo log of committed statements, plus checkpoint files and crash
// recovery. The log is logical — each commit record carries the SQL text
// (or prepared shape) and bound arguments of the statements the transaction
// committed — so replay re-executes statements through the normal engine
// rather than patching pages. The relational layer (internal/relational)
// owns what goes into a record; this package owns framing, fsync policy,
// segment rotation, checkpoint retention, and torn-tail truncation.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Kind tags a logged Value. The set is closed: NULL, int64, string — the
// relational value domain. Encoding any other kind is an error at the
// append boundary, never a lossy fallback rendering.
type Kind uint8

// Value kinds; the wire tags below reuse these numbers.
const (
	KindNull Kind = iota
	KindInt
	KindText
)

// Value is one logged argument in unboxed tagged form. It mirrors the
// relational layer's value struct field-for-field so conversion between the
// two is a copy, not an allocation.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
}

// Stmt is one logged statement: SQL text plus the bound argument values.
type Stmt struct {
	SQL  string
	Args []Value
}

// Frame layout: [u32 length][u32 crc32c(payload)][payload]. The length
// covers the payload only. Commit payload layout:
//
//	u64  lsn
//	u8   kind (recCommitV2)
//	u64  commit stamp
//	uv   statement count
//	per statement: uv len, sql bytes, uv nargs, per arg: tagged value
//
// Tagged values: 0x00 = NULL, 0x01 = int64 (zigzag varint), 0x02 = string
// (uvarint length + bytes). The MVCC commit stamp lets recovery restore the
// stamp counter past every replayed transaction.
const (
	frameHeaderSize = 8
	recCommitV2     = byte(2)
	// maxFrameSize bounds a frame length read from disk: anything larger is
	// treated as corruption, not an allocation request.
	maxFrameSize = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendValue appends the tagged encoding of v. A kind outside the closed
// NULL/int/string set is rejected with an error: the log must never hold a
// value recovery cannot decode. Exported so the relational page-record codec
// shares one value encoding with the log.
func AppendValue(b []byte, v Value) ([]byte, error) {
	switch v.Kind {
	case KindNull:
		return append(b, byte(KindNull)), nil
	case KindInt:
		b = append(b, byte(KindInt))
		return binary.AppendVarint(b, v.Int), nil
	case KindText:
		b = append(b, byte(KindText))
		b = binary.AppendUvarint(b, uint64(len(v.Str)))
		return append(b, v.Str...), nil
	default:
		return nil, fmt.Errorf("wal: unencodable value kind %d", uint8(v.Kind))
	}
}

// ReadValue decodes one tagged value, returning the remaining bytes. It
// never panics on corrupt input — every length is validated against the
// buffer before use (the fuzz target pins this).
func ReadValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("wal: truncated value")
	}
	tag, b := b[0], b[1:]
	switch Kind(tag) {
	case KindNull:
		return Value{}, b, nil
	case KindInt:
		v, n := binary.Varint(b)
		if n <= 0 {
			return Value{}, nil, fmt.Errorf("wal: bad varint")
		}
		return Value{Kind: KindInt, Int: v}, b[n:], nil
	case KindText:
		ln, n := binary.Uvarint(b)
		if n <= 0 || ln > uint64(len(b)-n) {
			return Value{}, nil, fmt.Errorf("wal: bad string length")
		}
		return Value{Kind: KindText, Str: string(b[n : n+int(ln)])}, b[n+int(ln):], nil
	default:
		return Value{}, nil, fmt.Errorf("wal: unknown value tag %d", tag)
	}
}

// encodeCommit renders a commit record payload. New records are always v2:
// the commit stamp rides in every frame even when zero, so the format has
// one write path.
func encodeCommit(lsn, stamp uint64, stmts []Stmt) ([]byte, error) {
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint64(b, lsn)
	b = append(b, recCommitV2)
	b = binary.BigEndian.AppendUint64(b, stamp)
	b = binary.AppendUvarint(b, uint64(len(stmts)))
	var err error
	for _, s := range stmts {
		b = binary.AppendUvarint(b, uint64(len(s.SQL)))
		b = append(b, s.SQL...)
		b = binary.AppendUvarint(b, uint64(len(s.Args)))
		for _, a := range s.Args {
			if b, err = AppendValue(b, a); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// DecodeCommit parses a commit record payload. Corrupt input of any shape
// returns an error; it must never panic (FuzzDecodeCommit drives random
// corruption through it).
func DecodeCommit(payload []byte) (lsn, stamp uint64, stmts []Stmt, err error) {
	if len(payload) < 9 {
		return 0, 0, nil, fmt.Errorf("wal: short record payload")
	}
	lsn = binary.BigEndian.Uint64(payload)
	if payload[8] != recCommitV2 {
		return 0, 0, nil, fmt.Errorf("wal: unknown record kind %d", payload[8])
	}
	if len(payload) < 17 {
		return 0, 0, nil, fmt.Errorf("wal: short v2 record payload")
	}
	stamp = binary.BigEndian.Uint64(payload[9:])
	b := payload[17:]
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return 0, 0, nil, fmt.Errorf("wal: bad statement count")
	}
	b = b[n:]
	stmts = make([]Stmt, 0, count)
	for i := uint64(0); i < count; i++ {
		ln, n := binary.Uvarint(b)
		if n <= 0 || ln > uint64(len(b)-n) {
			return 0, 0, nil, fmt.Errorf("wal: bad statement length")
		}
		s := Stmt{SQL: string(b[n : n+int(ln)])}
		b = b[n+int(ln):]
		nargs, n := binary.Uvarint(b)
		if n <= 0 || nargs > uint64(len(b)) {
			return 0, 0, nil, fmt.Errorf("wal: bad argument count")
		}
		b = b[n:]
		for j := uint64(0); j < nargs; j++ {
			var v Value
			if v, b, err = ReadValue(b); err != nil {
				return 0, 0, nil, err
			}
			s.Args = append(s.Args, v)
		}
		stmts = append(stmts, s)
	}
	if len(b) != 0 {
		return 0, 0, nil, fmt.Errorf("wal: %d trailing bytes in record", len(b))
	}
	return lsn, stamp, stmts, nil
}

// frame wraps a payload with the length + CRC header.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeaderSize+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:], crc32.Checksum(payload, crcTable))
	copy(out[frameHeaderSize:], payload)
	return out
}

// readFrame extracts the first frame from b, returning the payload and the
// remainder. ok=false means b starts with a torn or corrupt frame (short
// header, impossible length, or CRC mismatch) — the caller truncates there.
func readFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeaderSize {
		return nil, nil, false
	}
	ln := binary.BigEndian.Uint32(b)
	if ln > maxFrameSize || uint64(ln) > uint64(len(b)-frameHeaderSize) {
		return nil, nil, false
	}
	payload = b[frameHeaderSize : frameHeaderSize+ln]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(b[4:]) {
		return nil, nil, false
	}
	return payload, b[frameHeaderSize+ln:], true
}
