package relational

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/pager"
)

// decodeRecord seals one record into a page and decodes it as a row of
// width columns through the page decoder the pool's faults and reopen use.
func decodeRecord(width int, rec []byte) ([]Value, error) {
	b := pager.NewBuilder(max(pager.MinPageSize, pager.HeaderSize+pager.RecordSize(0, len(rec))), 0)
	b.Add(0, rec)
	count, recs, err := pager.Verify(b.Seal(), 0)
	if err != nil {
		return nil, err
	}
	var row []Value
	err = decodePageRows(count, recs, width, func(_ uint64, r []Value, _ int) error {
		row = r
		return nil
	})
	return row, err
}

// TestDecodePageRowsSlab: a page's rows are windows of one slab that an
// append cannot grow into a neighbour, its text values are substrings of
// one copy of the record region, and writing a row in place leaves the
// next row as it was.
func TestDecodePageRowsSlab(t *testing.T) {
	rows := [][]Value{
		{Int(1), Text("alpha"), Null},
		{Int(2), Text(""), Text("gamma")},
		{Int(-3), Null, Text("delta delta")},
	}
	b := pager.NewBuilder(pager.MinPageSize, 5)
	for i, r := range rows {
		rec, err := encodeRowInto(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		b.Add(uint64(10+i), rec)
	}
	img := b.Seal()
	count, recs, err := pager.Verify(img, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]Value
	if err := decodePageRows(count, recs, 3, func(rid uint64, r []Value, size int) error {
		if want := uint64(10 + len(got)); rid != want {
			t.Fatalf("rid %d, want %d", rid, want)
		}
		if cap(r) != len(r) {
			t.Fatalf("row %d: cap %d beyond its %d columns", rid, cap(r), len(r))
		}
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for c := range rows[i] {
			if got[i][c] != rows[i][c] {
				t.Fatalf("row %d col %d = %#v, want %#v", i, c, got[i][c], rows[i][c])
			}
		}
	}
	if unsafe.Add(unsafe.Pointer(&got[0][0]), 3*unsafe.Sizeof(Value{})) != unsafe.Pointer(&got[1][0]) {
		t.Fatal("rows are not consecutive windows of one slab")
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(got[0][1].s)))
	hi := uintptr(unsafe.Pointer(unsafe.StringData(got[2][2].s))) + uintptr(len(got[2][2].s))
	if hi-lo > uintptr(len(recs)) {
		t.Fatalf("text values span %d bytes, beyond the %d-byte record region", hi-lo, len(recs))
	}
	for i := range img {
		img[i] = 0 // the decoded text must not alias the page image
	}
	if got[0][1].s != "alpha" || got[2][2].s != "delta delta" {
		t.Fatal("decoded text changed with the page image")
	}
	got[0] = append(got[0], Int(99))
	got[1][1] = Text("in place")
	if got[1][0] != Int(2) || got[2][0] != Int(-3) {
		t.Fatal("a write to one row reached another")
	}
}

// TestDecodePageRowsRejects: a page that cannot be a table's rows is an
// error, not rows — a record of another width, bytes after the last
// value, a value encoded longer than the codec writes it, and a record
// count the record region cannot hold, which must fail before the slab
// is sized from it.
func TestDecodePageRowsRejects(t *testing.T) {
	good, _ := encodeRowInto(nil, []Value{Int(7), Text("x")})
	cases := map[string][]byte{
		"narrow":       mustRecord(t, []Value{Int(7)}),
		"wide":         mustRecord(t, []Value{Int(7), Text("x"), Null}),
		"miscounted":   append([]byte{3}, good[1:]...), // two values under a count of three
		"trailing":     append(append([]byte(nil), good...), 0),
		"long varint":  {2, byte(KindInt), 0x8e, 0x00, byte(KindNull)},
		"long count":   {0x82, 0x00, byte(KindNull), byte(KindNull)},
		"unknown kind": {2, 9, byte(KindNull)},
		"long text":    {2, byte(KindInt), 14, byte(KindText), 5, 'x'},
		"empty":        {},
	}
	for name, rec := range cases {
		if _, err := decodeRecord(2, rec); err == nil {
			t.Errorf("%s: record %x decoded as a 2-column row", name, rec)
		}
	}
	if _, err := decodeRecord(2, good); err != nil {
		t.Fatalf("canonical record: %v", err)
	}

	// Zero-filled free space reads as empty records (rid 0, length 0), so
	// a header claiming hundreds of them still verifies. The decoder must
	// refuse the count rather than allocate width Values for each.
	b := pager.NewBuilder(pager.DefaultPageSize, 0)
	b.Add(1, good)
	img := inflateCount(b.Seal(), 4000)
	count, recs, err := pager.Verify(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	var err2 error
	n := allocBytes(func() {
		err2 = decodePageRows(count, recs, 200, func(uint64, []Value, int) error { return nil })
	})
	if err2 == nil {
		t.Fatal("hostile record count decoded")
	}
	if n > 1024 {
		t.Fatalf("refusing a hostile count of %d records allocated %d bytes", count, n)
	}
}

// allocBytes returns the bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fn()
	runtime.ReadMemStats(&ms1)
	return ms1.TotalAlloc - ms0.TotalAlloc
}

func mustRecord(t *testing.T, row []Value) []byte {
	t.Helper()
	rec, err := encodeRowInto(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// inflateCount adds extra to a sealed page's record count and re-stamps
// its checksum, as a hostile writer could.
func inflateCount(img []byte, extra uint32) []byte {
	img = append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(img[12:16], binary.LittleEndian.Uint32(img[12:16])+extra)
	binary.LittleEndian.PutUint32(img[0:4], crc32.Checksum(img[4:], crc32.MakeTable(crc32.Castagnoli)))
	return img
}

// FuzzDecodePageRows seals arbitrary record bytes into a valid page (and,
// when extra is set, claims extra records more than it holds, re-stamping
// the checksum) and decodes it as rows of a table of 1 to 12 columns. The
// decoder must return an error or rows that re-encode to exactly the
// records sealed — never panic, and never allocate more than the page
// bounds: one copy of the record region plus a slab of at most one Value
// per region byte.
func FuzzDecodePageRows(f *testing.F) {
	row := func(vals ...Value) []byte { b, _ := encodeRowInto(nil, vals); return b }
	f.Add(uint8(2), uint16(0), row(Int(1), Text("a")), row(Null, Text("")), []byte{})
	f.Add(uint8(3), uint16(0), row(Int(-1<<63), Text("héllo"), Null), row(Int(7), Null, Text("x")), row(Null, Null, Null))
	f.Add(uint8(1), uint16(600), row(Int(5)), []byte{}, []byte{1})
	f.Add(uint8(2), uint16(0), []byte{2, 1, 0x80, 0x00, 0}, []byte{0x82, 0x00, 0, 0}, []byte{2, 2, 9})
	f.Fuzz(func(t *testing.T, w uint8, extra uint16, r1, r2, r3 []byte) {
		width := 1 + int(w%12)
		const pageSize = 4096
		b := pager.NewBuilder(pageSize, 3)
		var sealed [][]byte
		for _, r := range [][]byte{r1, r2, r3} {
			if !b.Fits(uint64(len(sealed)), len(r)) {
				break
			}
			b.Add(uint64(len(sealed)), r)
			sealed = append(sealed, r)
		}
		img := inflateCount(b.Seal(), uint32(extra%4096))
		count, recs, err := pager.Verify(img, 3)
		if err != nil {
			return // more records claimed than the free space frames
		}
		rows := make([][]Value, 0, len(sealed))
		got := allocBytes(func() {
			err = decodePageRows(count, recs, width, func(rid uint64, r []Value, size int) error {
				rows = append(rows, r)
				return nil
			})
		})
		// One Value per region byte bounds the slab; the slack covers size
		// classes and an error message.
		if bound := uint64(len(recs))*(1+uint64(unsafe.Sizeof(Value{}))) + 16<<10; got > bound {
			t.Fatalf("decoding %d records in %d bytes allocated %d bytes, bound %d", count, len(recs), got, bound)
		}
		if err != nil {
			return
		}
		if len(rows) != len(sealed) {
			t.Fatalf("decoded %d rows from %d sealed records", len(rows), len(sealed))
		}
		for i, r := range rows {
			enc, err := encodeRowInto(nil, r)
			if err != nil {
				t.Fatalf("row %d does not encode: %v", i, err)
			}
			if !bytes.Equal(enc, sealed[i]) || len(r) != width {
				t.Fatalf("row %d = %v re-encodes to %x, sealed %x", i, r, enc, sealed[i])
			}
		}
	})
}

// pageFaultDB builds a paged table of n rows with two text columns on
// 4 KiB pages behind a pool of poolPages pages, checkpointed so that every
// page is on disk and clean.
func pageFaultDB(t *testing.T, n, poolPages int) *DB {
	t.Helper()
	db := mustOpenDB(t, t.TempDir(), Options{Sync: SyncOff, CheckpointBytes: -1,
		PoolPages: poolPages, PageSize: 4096})
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, name VARCHAR(64), tag VARCHAR(16))")
	tx := db.Begin()
	for i := range n {
		if _, err := tx.Exec("INSERT INTO item VALUES (?, ?, ?, ?)",
			Int(int64(i+1)), Int(int64(i/8)), Text(fmt.Sprintf("name-%05d-%s", i, strings.Repeat("x", i%9))), Text(fmt.Sprintf("t%d", i%13))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAllocPinPageFault: a full scan of a paged table several times the
// pool's size allocates at most 3 objects per page read — one string and
// one Value slab per fault, plus the statement's own handful — not one
// per row and per text value.
func TestAllocPinPageFault(t *testing.T) {
	db := pageFaultDB(t, 12000, 8)
	defer db.Close()
	const q = "SELECT COUNT(*) FROM item WHERE name = 'none' OR tag = 'none'"
	streamCount(t, db, q) // warm the plan cache
	before := db.Stats().PageReads
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() { streamCount(t, db, q) })
	reads := float64(db.Stats().PageReads-before) / (runs + 1) // AllocsPerRun adds a warm-up run
	if _, _, limit := db.PagedPoolStats(); reads < 4*float64(limit) {
		t.Fatalf("a scan read %.0f pages, want at least 4x the %d-page pool", reads, limit)
	}
	per := allocs / reads
	t.Logf("%.0f allocations per scan, %.0f page reads: %.2f per read", allocs, reads, per)
	if per > 3 {
		t.Fatalf("%.2f allocations per page read, want at most 3", per)
	}
}

// TestPagedIndexKeysOwnTheirText: the text keys of a paged table's hash and
// B+tree indexes — built at reopen as pages decode, and by CREATE INDEX
// over faulted rows — are copies, so that no index entry keeps a decoded
// page's string alive after the page evicts.
func TestPagedIndexKeysOwnTheirText(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Sync: SyncOff, CheckpointBytes: -1, PoolPages: 64, PageSize: 512}
	db := mustOpenDB(t, dir, opts)
	db.MustExec("CREATE TABLE item (id INTEGER, parentId INTEGER, name VARCHAR(64), tag VARCHAR(16))")
	db.MustExec("CREATE INDEX iname ON item (name)")
	db.MustExec("CREATE ORDERED INDEX io ON item (name, id)")
	for i := range 300 {
		db.MustExec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d, 'n%04d', 't%d')", i+1, i/5, i, i%17))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The pool holds the whole file, so every page decoded at reopen is
	// still resident and its string is the one the reopened indexes saw.
	db = mustOpenDB(t, dir, opts)
	defer db.Close()
	db.MustExec("CREATE INDEX itag ON item (tag)")
	db.MustExec("CREATE ORDERED INDEX it ON item (tag, id)")
	tbl := db.tables["item"]
	pg := tbl.pg
	if resident, _, limit := db.PagedPoolStats(); resident != len(pg.pages) || resident > limit {
		t.Fatalf("%d of %d pages resident (pool %d): the file must fit the pool", resident, len(pg.pages), limit)
	}
	// Each page's text values lie in one string; their span stands in
	// for it.
	type span struct{ lo, hi uintptr }
	spans := make([]span, len(pg.pages))
	for rid, row := range tbl.rows {
		if row == nil {
			continue
		}
		sp := &spans[pg.dir[rid]]
		for _, v := range row {
			if v.kind != KindText || v.s == "" {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(v.s)))
			if sp.lo == 0 || p < sp.lo {
				sp.lo = p
			}
			sp.hi = max(sp.hi, p+uintptr(len(v.s)))
		}
	}
	inPage := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, sp := range spans {
			if p >= sp.lo && p < sp.hi {
				return true
			}
		}
		return false
	}

	// Evict every page.
	db.pool.mu.Lock()
	limit := db.pool.limit
	db.pool.limit = 0
	db.pool.evictPressureLocked()
	db.pool.limit = limit
	resident := db.pool.resident
	db.pool.mu.Unlock()
	if resident != 0 {
		t.Fatalf("%d pages still resident", resident)
	}
	runtime.GC()

	keys := 0
	for _, idx := range tbl.hashList {
		for k := range idx.rids.keys.strs {
			keys++
			if inPage(k) {
				t.Fatalf("hash index on column %d keeps key %q inside a page's string", idx.col, k)
			}
		}
	}
	for _, oidx := range tbl.orderedList {
		for c := oidx.tree.seekFirst(func(bkey) bool { return true }); ; c.advance() {
			k, ok := c.entry()
			if !ok {
				break
			}
			for _, v := range k.vals {
				if v.kind == KindText && inPage(v.s) {
					t.Fatalf("ordered index %s keeps key %q inside a page's string", oidx.name, v.s)
				}
			}
			keys++
		}
	}
	// 300 names and 17 tags in the hash indexes, 600 B+tree entries.
	if keys != 300+17+600 {
		t.Fatalf("checked %d text keys, want %d", keys, 300+17+600)
	}
}
