package pager

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// decodePage verifies a page image and calls fn for each record, as the
// relational layer's decoder walks a verified page.
func decodePage(page []byte, pageID uint32, fn func(rid uint64, payload []byte) error) error {
	count, b, err := Verify(page, pageID)
	if err != nil || fn == nil {
		return err
	}
	for range count {
		rid, payload, rest, ok := NextRecord(b)
		if !ok {
			return fmt.Errorf("verified page %d: record does not split off", pageID)
		}
		if err := fn(rid, payload); err != nil {
			return err
		}
		b = rest
	}
	if len(b) != 0 {
		return fmt.Errorf("verified page %d: %d bytes after the last record", pageID, len(b))
	}
	return nil
}

func TestPageRoundTrip(t *testing.T) {
	b := NewBuilder(1024, 7)
	recs := map[uint64][]byte{
		0:   []byte("alpha"),
		3:   {},
		12:  []byte("gamma gamma"),
		500: bytes.Repeat([]byte{0xAB}, 100),
	}
	for rid, p := range recs {
		if !b.Add(rid, p) {
			t.Fatalf("record %d did not fit", rid)
		}
	}
	page := b.Seal()
	if len(page) != 1024 {
		t.Fatalf("sealed page %d bytes, want 1024", len(page))
	}
	got := map[uint64][]byte{}
	if err := decodePage(page, 7, func(rid uint64, payload []byte) error {
		got[rid] = append([]byte(nil), payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for rid, want := range recs {
		if !bytes.Equal(got[rid], want) {
			t.Errorf("record %d: got %q want %q", rid, got[rid], want)
		}
	}
}

func TestPageFillRejectsOverflow(t *testing.T) {
	b := NewBuilder(MinPageSize, 0)
	rec := bytes.Repeat([]byte{1}, 40)
	added := 0
	for b.Add(uint64(added), rec) {
		added++
	}
	if added == 0 || added > MinPageSize/40 {
		t.Fatalf("added %d records to a %d-byte page", added, MinPageSize)
	}
	// The rejected add must leave the page decodable with exactly the
	// accepted records.
	page := b.Seal()
	n := 0
	if err := decodePage(page, 0, func(uint64, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != added {
		t.Fatalf("decoded %d records, want %d", n, added)
	}
}

func TestDecodePageRejectsCorruption(t *testing.T) {
	b := NewBuilder(512, 3)
	b.Add(1, []byte("payload-one"))
	b.Add(2, []byte("payload-two"))
	page := append([]byte(nil), b.Seal()...)

	// Flip one byte anywhere: checksum must catch it.
	for _, off := range []int{0, 5, 9, 13, 20, 200, 511} {
		dup := append([]byte(nil), page...)
		dup[off] ^= 0x40
		if err := decodePage(dup, 3, nil); err == nil {
			t.Errorf("corruption at byte %d not detected", off)
		}
	}
	// Wrong expected id fails even with a valid image.
	if err := decodePage(page, 4, nil); err == nil {
		t.Error("page id mismatch not detected")
	}
	// Truncated image fails cleanly.
	if err := decodePage(page[:15], 3, nil); err == nil {
		t.Error("truncated page not detected")
	}
}

func TestFileReadWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pages")
	pf, err := CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	for pid := uint32(0); pid < 5; pid++ {
		b := NewBuilder(512, pid)
		b.Add(uint64(pid)*10, []byte(fmt.Sprintf("page-%d", pid)))
		if err := pf.WritePage(pid, b.Seal()); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	pf, err = OpenFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if pf.NumPages() != 5 {
		t.Fatalf("NumPages = %d, want 5", pf.NumPages())
	}
	buf := make([]byte, 512)
	for pid := uint32(0); pid < 5; pid++ {
		if _, _, err := pf.ReadPage(pid, buf); err != nil {
			t.Fatalf("page %d: %v", pid, err)
		}
		want := fmt.Sprintf("page-%d", pid)
		found := false
		decodePage(buf, pid, func(rid uint64, payload []byte) error {
			if string(payload) == want {
				found = true
			}
			return nil
		})
		if !found {
			t.Fatalf("page %d: record %q not found", pid, want)
		}
	}

	// A torn in-place write must fail the page's read, not be served.
	if _, err := pf.WriteAt(bytes.Repeat([]byte{0xEE}, 100), 2*512+50); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pf.ReadPage(2, buf); err == nil {
		t.Fatal("torn page 2 read back without error")
	}
	if _, _, err := pf.ReadPage(1, buf); err != nil {
		t.Fatalf("neighbor page 1 damaged by tear: %v", err)
	}
}

// FuzzDecodePage feeds arbitrary bytes through Verify and the record walk
// over the region it returns: any corruption must surface as an error,
// never a panic or an out-of-range access, and a verified region must
// split into exactly its counted records. Mirrors FuzzDecodeCommit on the
// WAL record decoder.
func FuzzDecodePage(f *testing.F) {
	b := NewBuilder(MinPageSize, 0)
	b.Add(1, []byte("seed-record"))
	b.Add(9, []byte{0, 1, 2, 3})
	f.Add(append([]byte(nil), b.Seal()...), uint32(0))
	f.Add([]byte{}, uint32(1))
	f.Add([]byte("XPG1 but way too short"), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, pid uint32) {
		count, recs, err := Verify(data, pid)
		if err != nil {
			return
		}
		if err := decodePage(data, pid, func(uint64, []byte) error { count--; return nil }); err != nil || count != 0 {
			t.Fatalf("verified region of %d bytes: %v, %d records unwalked", len(recs), err, count)
		}
	})
}
