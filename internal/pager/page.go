// Package pager implements the on-disk page layer of the paged storage
// backend: fixed-size slotted heap pages, each independently checksummed,
// stored in one flat file per relation. The layer is deliberately dumb —
// it knows about pages, records, and CRCs, never about rows, schemas, or
// visibility. The relational layer above owns the mapping from rowids to
// pages and decides what record bytes mean.
//
// Page layout (all integers little-endian):
//
//	[0:4]   CRC32C (Castagnoli) over bytes [4:pageSize]
//	[4:8]   magic "XPG1"
//	[8:12]  page id
//	[12:16] record count
//	[16:]   records: uvarint rid, uvarint length, payload bytes
//	        … free space zero-filled to pageSize
//
// The checksum covers the whole page including free space, so a torn
// write — any prefix, suffix, or interior shred of a page — fails
// verification as a unit. A page never carries pointers to other pages;
// corruption is contained to the page that took the hit.
package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// DefaultPageSize is the page size used when the caller does not choose
// one: large enough that shredded XML rows (a handful of ints and short
// strings) pack hundreds to a page, small enough that a checkpoint's
// dirty-page granularity stays fine-grained.
const DefaultPageSize = 16 << 10

// MinPageSize bounds configuration: a page must hold the header and at
// least one modest record.
const MinPageSize = 256

// HeaderSize is the fixed prefix before the first record; fill
// estimators above this package start from it.
const HeaderSize = 16

// pageHeaderSize is HeaderSize under its historical internal name.
const pageHeaderSize = HeaderSize

const pageMagic = "XPG1"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Builder packs records into one page image. Records are appended until
// Add reports no room; Seal stamps the header and checksum and returns
// the full pageSize image.
type Builder struct {
	buf   []byte
	count uint32
}

// NewBuilder returns a builder for one page image of the given size.
func NewBuilder(pageSize int, pageID uint32) *Builder {
	b := &Builder{buf: make([]byte, pageHeaderSize, pageSize)}
	copy(b.buf[4:8], pageMagic)
	binary.LittleEndian.PutUint32(b.buf[8:12], pageID)
	return b
}

// Reset reuses the builder's buffer for a new page image.
func (b *Builder) Reset(pageID uint32) {
	b.buf = b.buf[:pageHeaderSize]
	binary.LittleEndian.PutUint32(b.buf[8:12], pageID)
	b.count = 0
}

// RecordSize returns the page bytes one record of n payload bytes
// occupies, including its rid and length prefixes.
func RecordSize(rid uint64, n int) int {
	return uvarintLen(rid) + uvarintLen(uint64(n)) + n
}

// Fits reports whether a record of n payload bytes still fits.
func (b *Builder) Fits(rid uint64, n int) bool {
	return len(b.buf)+RecordSize(rid, n) <= cap(b.buf)
}

// Add appends one record; it reports false (leaving the page unchanged)
// when the record does not fit. A record too large for an empty page is
// the caller's planning error and panics — the relational layer sizes
// its fill decisions before packing.
func (b *Builder) Add(rid uint64, payload []byte) bool {
	if !b.Fits(rid, len(payload)) {
		if b.count == 0 {
			panic(fmt.Sprintf("pager: record of %d bytes exceeds page size %d", len(payload), cap(b.buf)))
		}
		return false
	}
	b.buf = binary.AppendUvarint(b.buf, rid)
	b.buf = binary.AppendUvarint(b.buf, uint64(len(payload)))
	b.buf = append(b.buf, payload...)
	b.count++
	return true
}

// Len returns the bytes currently used, header included.
func (b *Builder) Len() int { return len(b.buf) }

// Count returns the records added so far.
func (b *Builder) Count() int { return int(b.count) }

// Seal zero-fills the free space, stamps the record count and checksum,
// and returns the complete page image. The returned slice aliases the
// builder's buffer; Reset invalidates it.
func (b *Builder) Seal() []byte {
	binary.LittleEndian.PutUint32(b.buf[12:16], b.count)
	page := b.buf[:cap(b.buf)]
	for i := len(b.buf); i < len(page); i++ {
		page[i] = 0
	}
	binary.LittleEndian.PutUint32(page[0:4], crc32.Checksum(page[4:], castagnoli))
	return page
}

// Verify checks a page image — checksum, magic, page id — and then the
// framing of every record the header counts. It returns that count and the
// record region: the bytes from the end of the header to the end of the
// last record, holding exactly count whole records, which NextRecord
// splits off one by one. Nothing past the checksum is read before the
// checksum verifies. It never panics on arbitrary input.
func Verify(page []byte, pageID uint32) (count int, records []byte, err error) {
	if len(page) < pageHeaderSize {
		return 0, nil, fmt.Errorf("pager: page image %d bytes, need at least %d", len(page), pageHeaderSize)
	}
	if got, want := binary.LittleEndian.Uint32(page[0:4]), crc32.Checksum(page[4:], castagnoli); got != want {
		return 0, nil, fmt.Errorf("pager: page %d checksum mismatch (stored %08x, computed %08x)", pageID, got, want)
	}
	if string(page[4:8]) != pageMagic {
		return 0, nil, fmt.Errorf("pager: page %d bad magic", pageID)
	}
	if got := binary.LittleEndian.Uint32(page[8:12]); got != pageID {
		return 0, nil, fmt.Errorf("pager: page id mismatch: header says %d, expected %d", got, pageID)
	}
	n := binary.LittleEndian.Uint32(page[12:16])
	b := page[pageHeaderSize:]
	for i := uint32(0); i < n; i++ {
		var ok bool
		if _, _, b, ok = NextRecord(b); !ok {
			return 0, nil, fmt.Errorf("pager: page %d record %d: bad framing", pageID, i)
		}
	}
	return int(n), page[pageHeaderSize : len(page)-len(b)], nil
}

// NextRecord splits the first record off b: its rid, its payload and the
// bytes after it. ok is false when b does not start with a whole record;
// a region Verify returned always does, count times.
func NextRecord(b []byte) (rid uint64, payload, rest []byte, ok bool) {
	rid, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, nil, false
	}
	b = b[n:]
	ln, n := binary.Uvarint(b)
	if n <= 0 || ln > uint64(len(b)-n) {
		return 0, nil, nil, false
	}
	end := n + int(ln)
	return rid, b[n:end:end], b[end:], true
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
