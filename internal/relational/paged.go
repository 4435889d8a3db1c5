package relational

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pager"
	"repro/internal/wal"
)

// Paged storage backend. A DB opened with Open(dir, …) keeps each
// non-temp table's rows on fixed-size slotted heap pages
// (internal/pager) behind a shared buffer pool: a bounded number of pages
// are resident (decoded into t.rows slots) at a time, clean unpinned pages
// evict under a CLOCK sweep, and a dataset several times the pool size
// scans and joins under bounded memory. t.rows keeps its full rid-indexed
// length in paged mode — a nil slot means "not resident here" and the
// per-table directory (rid → page) distinguishes evicted from deleted —
// so every len(t.rows) rid-space invariant the memory backend relies on
// holds unchanged.
//
// This file is the only code that tests t.pg. Readers go through
// rowCursor (every per-row scan and probe loop) or Row (unpinned rid→row
// fetches). Row writes call the nil-guarded row hooks (pgPlace, pgMark,
// pgDrop, pgTruncate, pgRowFits), which do nothing for a memory table,
// and only the row-writer methods in table.go call them; pgGone is table
// lifecycle. Restore refuses a directory DB: no paged rows swap wholesale.
//
// Locking: the directory, page list, and page metadata are mutated only
// under the DB writer lock (mutations) or the pool mutex (residency
// transitions: fault, evict, pin). Readers run under the shared DB lock
// and may fault and evict concurrently, so every residency-sensitive slot
// access takes the pool mutex — except reads through a rowCursor, whose
// pinned page cannot evict, making its slots stable lock-free for the
// duration of the pin (the iterator pin/unpin contract: a levelIter pins
// the page under its position across Next and unpins at Close/abandon,
// mirroring the rowIter buffer-reuse rule that a row is only valid until
// the next Next/Close).
//
// Dirty pages are never evicted (no-steal) and are only written at
// checkpoint time, so the page files always hold exactly the state of the
// last checkpoint and the logical WAL tail replays on top of them with no
// double-apply hazard. See Checkpoint for the dirty-flush protocol.

// StorageKind is the type of Options.Storage.
//
// Deprecated: every directory is paged; ignored.
type StorageKind uint8

// StoragePaged names the only backend Open has.
//
// Deprecated: every directory is paged; ignored.
const StoragePaged StorageKind = 1

// defaultPoolPages bounds resident pages when Options.PoolPages is zero:
// 256 × 16 KiB = 4 MiB of hot rows, small enough that the
// larger-than-RAM tests actually evict, large enough that metadata fits.
const defaultPoolPages = 256

// pgDead marks a rid with no page — deleted (or never placed).
const pgDead = int32(-1)

// errCkptOpenTxn reports a paged checkpoint skipped because explicit
// transactions were open: the no-steal flush requires every resident page
// to hold only committed rows. The auto-checkpoint retries after the next
// commit; an explicit Checkpoint call surfaces it to the caller.
var errCkptOpenTxn = errors.New("relational: paged checkpoint requires no open transactions")

// pageInfo is the in-memory state of one heap page.
type pageInfo struct {
	id       int32
	resident bool
	dirty    bool
	// flushing marks pages whose checkpoint image has been captured but
	// not yet durably applied to the page file: they must not evict (a
	// refault would read the stale on-disk image) until the writes land.
	flushing bool
	pins     int32
	ref      bool
	// rids lists every rid ever placed on this page; dir[rid] == id
	// filters the ones that still live here (deletes and relocations
	// leave stale entries behind rather than compacting per mutation).
	rids []int32
	// est tracks the estimated encoded size (header included) driving
	// fill decisions; flush recomputes it exactly.
	est int
}

// pagedTable is the paged backend of one table.
type pagedTable struct {
	t   *Table
	db  *DB
	key string // lower-case table name; pool sweeps detect dropped tables
	// file is the backing page file; nil until the first flush (a table
	// that never checkpointed lives purely in dirty resident pages).
	file  *pager.File
	dir   []int32 // rid → page id, pgDead when the row is deleted
	pages []*pageInfo
	fill  *pageInfo // current insert target
	// gone marks the table dropped from db.tables (set under the DB writer
	// lock at drop time, cleared on rollback resurrection). Atomic because
	// pool sweeps and the checkpoint durable phase consult it without
	// holding the writer lock — reading db.tables there would race DDL.
	gone atomic.Bool
}

// pagePool is the DB-wide buffer pool: it bounds how many pages are
// resident across all paged tables and runs the CLOCK eviction sweep.
type pagePool struct {
	mu       sync.Mutex
	limit    int
	pageSize int
	resident int
	dirty    int
	clock    []poolFrame
	hand     int
	iobuf    []byte // fault read buffer, reused under mu
}

type poolFrame struct {
	pt *pagedTable
	pi *pageInfo
}

func newPagePool(limit, pageSize int) *pagePool {
	if limit <= 0 {
		limit = defaultPoolPages
	}
	if pageSize == 0 {
		pageSize = pager.DefaultPageSize
	}
	return &pagePool{limit: limit, pageSize: pageSize, iobuf: make([]byte, pageSize)}
}

func newPagedTable(db *DB, t *Table) *pagedTable {
	return &pagedTable{t: t, db: db, key: strings.ToLower(t.Name)}
}

// pagedFileName maps a table name to its page file, escaping bytes that
// are not portable filename characters.
func pagedFileName(key string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	return b.String() + ".pages"
}

func (pg *pagedTable) filePath() string {
	return filepath.Join(pg.db.pagedDir, pagedFileName(pg.key))
}

// detached reports whether the table was dropped out from under its pool
// frames (DROP TABLE keeps the paged state intact so a transaction
// rollback can resurrect the table; the pool reaps frames lazily). It
// reads the atomic drop marker, not db.tables — callers run outside the
// DB writer lock.
func (pg *pagedTable) detached() bool {
	return pg.gone.Load()
}

// ---- residency: fault, evict, pin ----

// pagedFail records the first paged-storage I/O failure; every later
// statement on the DB fails rather than serve rows that may be missing.
func (db *DB) pagedFail(err error) {
	if db.pageErr.Load() == nil {
		e := fmt.Errorf("relational: paged storage failed (DB is poisoned): %w", err)
		db.pageErr.CompareAndSwap(nil, &e)
	}
}

// pagedErr returns the sticky paged-storage error, or nil.
func (db *DB) pagedErr() error {
	if p := db.pageErr.Load(); p != nil {
		return *p
	}
	return nil
}

// faultLocked reads one page from the table's file and re-populates its
// row slots. Caller holds pool.mu and has pinned pi against the eviction
// pressure the admission below can trigger.
func (p *pagePool) faultLocked(pg *pagedTable, pi *pageInfo) error {
	if pg.file == nil {
		return fmt.Errorf("relational: table %s page %d non-resident with no backing file", pg.t.Name, pi.id)
	}
	if err := pg.file.ReadPage(uint32(pi.id), p.iobuf); err != nil {
		return err
	}
	err := pager.DecodePage(p.iobuf, uint32(pi.id), func(rid uint64, payload []byte) error {
		r := int(rid)
		if r >= len(pg.dir) || pg.dir[r] != pi.id {
			// The rid moved or died since this image was written; its
			// current page owns it now.
			return nil
		}
		row, err := decodeRowBytes(payload)
		if err != nil {
			return err
		}
		pg.t.rows[r] = row
		return nil
	})
	if err != nil {
		return err
	}
	pg.db.stats.PageReads.Add(1)
	p.admitLocked(pg, pi)
	return nil
}

// admitLocked marks a page resident, registers its clock frame, and
// applies eviction pressure. Caller holds pool.mu.
func (p *pagePool) admitLocked(pg *pagedTable, pi *pageInfo) {
	if pi.resident {
		return
	}
	pi.resident = true
	p.resident++
	p.clock = append(p.clock, poolFrame{pt: pg, pi: pi})
	p.evictPressureLocked()
}

// evictPressureLocked evicts clean unpinned pages until the pool is back
// within its limit or no victim exists (everything pinned or dirty — the
// pool then runs over budget rather than blocking; dirty pressure is what
// the checkpoint trigger relieves).
func (p *pagePool) evictPressureLocked() {
	for p.resident > p.limit {
		if !p.evictOneLocked() {
			return
		}
	}
}

// evictOneLocked runs one CLOCK sweep: a referenced page gets a second
// chance (ref cleared), a pinned, dirty, or flushing page is skipped, and
// the first cold clean page found is evicted — its row slots nil out and
// the decoded rows become garbage once no reader still references them.
func (p *pagePool) evictOneLocked() bool {
	attempts := 2*len(p.clock) + 2
	for i := 0; i < attempts && len(p.clock) > 0; i++ {
		if p.hand >= len(p.clock) {
			p.hand = 0
		}
		fr := p.clock[p.hand]
		pi := fr.pi
		switch {
		case !pi.resident || fr.pt.detached():
			// Stale frame (already evicted, or its table was dropped):
			// unregister in place.
			if fr.pt.detached() && pi.resident {
				p.releaseFrameLocked(fr)
			}
			last := len(p.clock) - 1
			p.clock[p.hand] = p.clock[last]
			p.clock = p.clock[:last]
		case pi.pins > 0 || pi.dirty || pi.flushing:
			p.hand++
		case pi.ref:
			pi.ref = false
			p.hand++
		default:
			for _, rid := range pi.rids {
				if int(rid) < len(fr.pt.dir) && fr.pt.dir[rid] == pi.id {
					fr.pt.t.rows[rid] = nil
				}
			}
			pi.resident = false
			p.resident--
			fr.pt.db.stats.Evictions.Add(1)
			last := len(p.clock) - 1
			p.clock[p.hand] = p.clock[last]
			p.clock = p.clock[:last]
			return true
		}
	}
	return false
}

// releaseFrameLocked force-drops a dropped table's page from the pool
// accounting (slots and dirtiness no longer matter — the table is gone).
func (p *pagePool) releaseFrameLocked(fr poolFrame) {
	if fr.pi.resident {
		fr.pi.resident = false
		p.resident--
	}
	if fr.pi.dirty {
		fr.pi.dirty = false
		p.dirty--
	}
}

// rowRef returns the current row slot for rid, faulting its page in if
// needed. The returned slice stays valid after the page evicts (readers
// hold it; the garbage collector settles lifetime) — only the slot itself
// is unstable, which is why this accessor re-reads it under the pool
// mutex.
func (pg *pagedTable) rowRef(rid int) []Value {
	if rid < 0 || rid >= len(pg.dir) {
		return nil
	}
	pid := pg.dir[rid]
	if pid < 0 {
		return nil
	}
	pi := pg.pages[pid]
	p := pg.db.pool
	p.mu.Lock()
	if !pi.resident {
		pi.pins++
		err := p.faultLocked(pg, pi)
		pi.pins--
		if err != nil {
			p.mu.Unlock()
			pg.db.pagedFail(err)
			return nil
		}
		pg.db.stats.PoolMisses.Add(1)
	} else {
		pg.db.stats.PoolHits.Add(1)
	}
	pi.ref = true
	row := pg.t.rows[rid]
	p.mu.Unlock()
	return row
}

// rowCursor is the row reader of every scan and probe loop, and the one
// place that decides how a row is read. A memory table with no versions
// takes visibleAt's inlined fast path, a slice load. Everything else takes the slow path: the version-chain walk, after
// pinning the row's page on a paged table. While a pin is held, the pinned
// page's slots are stable without taking the pool mutex; crossing a page
// boundary re-pins. Abandoning a cursor without release would leak the
// pin — Close paths release, and DB.Close audits that no pins remain.
type rowCursor struct {
	t  *Table
	pi *pageInfo
}

// visibleAt returns the version of row rid visible to sn, or nil. rid must
// lie in the table's rid space: scan positions do by construction, and
// index entries never outlive their rids. The fast path leaves that bounds
// check to the slice index — an explicit one costs more than the inlining
// budget (CI pins that this method inlines).
func (c *rowCursor) visibleAt(t *Table, rid int, sn snapshot) []Value {
	if t.pg == nil && t.vers == 0 {
		return t.rows[rid]
	}
	return c.visibleSlow(t, rid, sn)
}

func (c *rowCursor) visibleSlow(t *Table, rid int, sn snapshot) []Value {
	if t.pg == nil {
		return t.visibleRow(rid, sn)
	}
	row := c.pinned(t, rid)
	if row == nil {
		return nil
	}
	if old, cur := t.versionAt(rid, sn); !cur {
		return old
	}
	return row
}

// rowAt returns the current row rid with no visibility filtering — the
// physical rows whole-table passes such as index builds read.
func (c *rowCursor) rowAt(t *Table, rid int) []Value {
	if t.pg == nil && uint(rid) < uint(len(t.rows)) {
		return t.rows[rid]
	}
	return c.pinned(t, rid)
}

// pinned pins the page under rid and returns its current row slot: nil
// when the row is dead or its page failed to fault (which poisons the DB).
// The common case — same page as the last call — takes no lock.
func (c *rowCursor) pinned(t *Table, rid int) []Value {
	pg := t.pg
	if rid < 0 || rid >= len(pg.dir) || rid >= len(t.rows) {
		return nil
	}
	pid := pg.dir[rid]
	if pid < 0 {
		return nil
	}
	if c.pi == nil || c.t != t || c.pi.id != pid {
		if !c.repin(t, pid) {
			return nil
		}
	}
	return t.rows[rid]
}

// repin swaps the cursor's pin to page pid, faulting it in if needed. A
// poisoned DB serves no more pages, so it fails without retrying the I/O.
func (c *rowCursor) repin(t *Table, pid int32) bool {
	pg := t.pg
	if pg.db.pageErr.Load() != nil {
		return false
	}
	p := pg.db.pool
	p.mu.Lock()
	pi := pg.pages[pid]
	pi.pins++
	if !pi.resident {
		if err := p.faultLocked(pg, pi); err != nil {
			pi.pins--
			p.mu.Unlock()
			pg.db.pagedFail(err)
			return false
		}
		pg.db.stats.PoolMisses.Add(1)
	} else {
		pg.db.stats.PoolHits.Add(1)
	}
	pi.ref = true
	if c.pi != nil {
		c.pi.pins--
	}
	p.mu.Unlock()
	c.t, c.pi = t, pi
	return true
}

// release drops the cursor's pin. Safe to call repeatedly.
func (c *rowCursor) release() {
	if c.pi == nil {
		return
	}
	p := c.t.pg.db.pool
	p.mu.Lock()
	c.pi.pins--
	p.mu.Unlock()
	c.t, c.pi = nil, nil
}

// Row returns the values of a live row, or nil. A paged row's page is
// faulted in by rid and not pinned (rowRef); per-row loops read through a
// rowCursor instead.
func (t *Table) Row(rid int) []Value {
	if rid < 0 || rid >= len(t.rows) {
		return nil
	}
	if t.pg != nil {
		return t.pg.rowRef(rid)
	}
	return t.rows[rid]
}

// liveAt reports whether rid refers to a live row without requiring its
// page to be resident.
func (t *Table) liveAt(rid int) bool {
	if t.pg != nil {
		return rid >= 0 && rid < len(t.pg.dir) && t.pg.dir[rid] >= 0
	}
	return rid >= 0 && rid < len(t.rows) && t.rows[rid] != nil
}

// ---- table mutation hooks ----
// All run under the DB writer lock; they take the pool mutex for the
// fields concurrent readers observe.

// pgPlace assigns a newly inserted (or rollback-restored) row to a page.
// The fill page is always dirty and therefore resident and unevictable,
// so the row's slot is stable for the rest of the statement.
func (t *Table) pgPlace(rid int, row []Value) {
	pg := t.pg
	if pg == nil {
		return
	}
	sz := pager.RecordSize(uint64(rid), encodedRowSize(row))
	p := pg.db.pool
	p.mu.Lock()
	for len(pg.dir) <= rid {
		pg.dir = append(pg.dir, pgDead)
	}
	pi := pg.fill
	if pi == nil || !pi.resident || pi.flushing || pi.est+sz > p.pageSize {
		pi = pg.newPageLocked()
		pg.fill = pi
	}
	if !pi.dirty {
		pi.dirty = true
		p.dirty++
	}
	pi.rids = append(pi.rids, int32(rid))
	pi.est += sz
	pg.dir[rid] = pi.id
	p.mu.Unlock()
}

// newPageLocked appends a fresh resident page. It is born dirty — a page
// only comes into existence to receive a row, and marking it dirty before
// admission keeps the eviction pressure admission triggers from evicting
// the page out from under its first insert. Caller holds pool.mu.
func (pg *pagedTable) newPageLocked() *pageInfo {
	p := pg.db.pool
	pi := &pageInfo{id: int32(len(pg.pages)), est: pager.HeaderSize, dirty: true}
	p.dirty++
	pg.pages = append(pg.pages, pi)
	p.admitLocked(pg, pi)
	return pi
}

// pgRowFits rejects a row whose encoded record cannot fit an empty page.
// pgPlace would happily admit one (fill accounting just opens a fresh
// page), but no flush could ever pack it: the checkpoint's relocation
// loop would allocate pages forever without making progress. Mutations
// must check before committing the row to the table.
func (t *Table) pgRowFits(rid int, row []Value) error {
	pg := t.pg
	if pg == nil {
		return nil
	}
	limit := pg.db.pool.pageSize - pager.HeaderSize
	if sz := pager.RecordSize(uint64(rid), encodedRowSize(row)); sz > limit {
		return fmt.Errorf("relational: table %s row encodes to %d bytes, exceeding the %d-byte record capacity of a %d-byte page",
			t.Name, sz, limit, pg.db.pool.pageSize)
	}
	return nil
}

// pgMark dirties the page under rid before its row mutates in place.
// Call it immediately after the residency-establishing read: once dirty,
// the page cannot evict, so the mutation and the slot stay coherent.
func (t *Table) pgMark(rid int) {
	pg := t.pg
	if pg == nil {
		return
	}
	if rid < 0 || rid >= len(pg.dir) || pg.dir[rid] < 0 {
		return
	}
	pi := pg.pages[pg.dir[rid]]
	p := pg.db.pool
	p.mu.Lock()
	if !pi.dirty {
		pi.dirty = true
		p.dirty++
	}
	p.mu.Unlock()
}

// pgDrop marks rid's row physically deleted: the directory entry dies,
// the rid leaves its page's list, and the page (which still holds the stale
// record until the next flush rewrites it) goes dirty. Unlisting keeps a
// later pgPlace of the same rid — a rolled-back delete, or an insert
// reusing a truncated rid — from listing it twice on the fill page, which
// the flush would write as two records and reopen would attach twice.
func (t *Table) pgDrop(rid int) {
	pg := t.pg
	if pg == nil {
		return
	}
	if rid < 0 || rid >= len(pg.dir) || pg.dir[rid] < 0 {
		return
	}
	pi := pg.pages[pg.dir[rid]]
	p := pg.db.pool
	p.mu.Lock()
	pg.dir[rid] = pgDead
	for i := len(pi.rids) - 1; i >= 0; i-- {
		if pi.rids[i] == int32(rid) {
			pi.rids = append(pi.rids[:i], pi.rids[i+1:]...)
			break
		}
	}
	if !pi.dirty {
		pi.dirty = true
		p.dirty++
	}
	p.mu.Unlock()
}

// pgTruncate shrinks the rid space after a rolled-back insert suffix.
func (t *Table) pgTruncate(n int) {
	pg := t.pg
	if pg == nil || len(pg.dir) <= n {
		return
	}
	pg.dir = pg.dir[:n]
}

// pgGone sets the table's drop marker (pagedTable.gone): true when DROP
// TABLE takes it out of db.tables, false when a rollback brings it back.
func (t *Table) pgGone(gone bool) {
	if t.pg != nil {
		t.pg.gone.Store(gone)
	}
}

// ---- row record codec ----
// One heap-page record is the row's column count followed by the log's
// tagged value encoding — the same closed NULL/int/string domain the WAL
// uses.

func encodeRowInto(b []byte, row []Value) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(row)))
	var err error
	for _, v := range row {
		if b, err = wal.AppendValue(b, walVal(v)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeRowBytes(b []byte) ([]Value, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)) {
		return nil, fmt.Errorf("relational: bad page record column count")
	}
	b = b[sz:]
	row := make([]Value, n)
	for i := range row {
		wv, rest, err := wal.ReadValue(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if row[i], err = fromWalVal(wv); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("relational: %d trailing bytes in page record", len(b))
	}
	return row, nil
}

// encodedRowSize returns the record payload size encodeRowInto would
// produce, allocation-free (fill decisions run per insert).
func encodedRowSize(row []Value) int {
	n := uvarintSize(uint64(len(row)))
	for _, v := range row {
		switch v.kind {
		case KindInt:
			// Zigzag varint, as binary.AppendVarint encodes.
			n += 1 + uvarintSize(uint64(v.i)<<1^uint64(v.i>>63))
		case KindText:
			n += 1 + uvarintSize(uint64(len(v.s))) + len(v.s)
		default:
			n++
		}
	}
	return n
}

func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ---- checkpoint v2: dirty-page flush with doublewrite ----

// pagedImage is one captured page image bound for the table's page file.
type pagedImage struct {
	pg  *pagedTable
	pid int32
	img []byte
}

// pagedTableMeta is one table's line in the v2 checkpoint payload.
type pagedTableMeta struct {
	name   string
	nrows  int // rid space (len(t.rows)), preserving trailing tombstones
	npages int
}

// capturePagedLocked encodes every dirty page's current rows into
// images, relocating rows that outgrew their page, and marks the pages
// clean+flushing. Caller holds the writer lock with no open snapshots,
// so every captured row is committed state. Returns the images and the
// per-table metadata the checkpoint payload carries.
func (db *DB) capturePagedLocked() ([]pagedImage, []pagedTableMeta, error) {
	p := db.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	var images []pagedImage
	names := make([]string, 0, len(db.tables))
	for key := range db.tables {
		names = append(names, key)
	}
	// Deterministic order keeps the doublewrite layout reproducible.
	sort.Strings(names)
	metas := make([]pagedTableMeta, 0, len(names))
	var scratch []byte
	for _, key := range names {
		t := db.tables[key]
		pg := t.pg
		if pg == nil {
			continue
		}
		b := pager.NewBuilder(p.pageSize, 0)
		// pg.pages can grow mid-loop (relocations append); index explicitly.
		for i := 0; i < len(pg.pages); i++ {
			pi := pg.pages[i]
			if !pi.dirty {
				continue
			}
			b.Reset(uint32(pi.id))
			live := pi.rids[:0:0]
			est := pager.HeaderSize
			var overflow []int32
			for _, rid := range pi.rids {
				if int(rid) >= len(pg.dir) || pg.dir[rid] != pi.id {
					continue // deleted or relocated away
				}
				row := t.rows[rid]
				if row == nil {
					return nil, nil, fmt.Errorf("relational: dirty page %s/%d lost row %d", t.Name, pi.id, rid)
				}
				var err error
				scratch, err = encodeRowInto(scratch[:0], row)
				if err != nil {
					return nil, nil, err
				}
				if !b.Fits(uint64(rid), len(scratch)) {
					if pager.RecordSize(uint64(rid), len(scratch)) > p.pageSize-pager.HeaderSize {
						// The record cannot fit any page: relocating it
						// would allocate fresh pages forever. Mutations
						// reject such rows (pgRowFits), so reaching this is
						// a bug or an unchecked bulk-load path — fail the
						// checkpoint rather than spin.
						return nil, nil, fmt.Errorf("relational: table %s row %d record of %d bytes exceeds page capacity %d",
							t.Name, rid, len(scratch), p.pageSize-pager.HeaderSize)
					}
					// The row grew past this page's free space: relocate
					// it to a fresh page, captured later in this loop.
					overflow = append(overflow, rid)
					continue
				}
				b.Add(uint64(rid), scratch)
				live = append(live, rid)
				est += pager.RecordSize(uint64(rid), len(scratch))
			}
			for _, rid := range overflow {
				npi := pg.fill
				sz := pager.RecordSize(uint64(rid), encodedRowSize(t.rows[rid]))
				if npi == nil || !npi.dirty || npi.est+sz > p.pageSize {
					npi = pg.newPageLocked() // born dirty
					pg.fill = npi
				}
				npi.rids = append(npi.rids, rid)
				npi.est += sz
				pg.dir[rid] = npi.id
			}
			img := make([]byte, p.pageSize)
			copy(img, b.Seal())
			images = append(images, pagedImage{pg: pg, pid: pi.id, img: img})
			pi.rids = live
			pi.est = est
			pi.dirty = false
			p.dirty--
			pi.flushing = true
		}
		metas = append(metas, pagedTableMeta{name: t.Name, nrows: len(t.rows), npages: len(pg.pages)})
	}
	return images, metas, nil
}

// finishFlushLocked clears the flushing marks after the images are
// durable (ok) or re-dirties the pages after a failed flush so the next
// checkpoint recaptures them (a page mutated meanwhile is already dirty
// again and stays so).
func (db *DB) finishFlush(images []pagedImage, ok bool) {
	p := db.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, im := range images {
		pi := im.pg.pages[im.pid]
		pi.flushing = false
		if !ok && !pi.dirty {
			pi.dirty = true
			p.dirty++
		}
	}
}

// overLimit reports whether resident pages exceed the pool budget —
// after a bulk recovery replay this is the signal to checkpoint so dirty
// pages become clean and evictable.
func (p *pagePool) overLimit() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident > p.limit
}

// Checkpoint writes every dirty page to its table's page file, records an
// RCKP2 marker — the schema history plus each table's rid-space and page
// count — and truncates the log segments it supersedes. It captures the
// page images and the log position under the writer lock (refused with
// errCkptOpenTxn while a transaction or snapshot is open), then — outside
// the lock — makes them durable via the doublewrite buffer, applies them
// in place, and writes the small marker. Crash at any point recovers:
// before the doublewrite rename the old checkpoint plus the intact WAL
// cover everything; after it, recovery re-applies the complete doublewrite
// (fixing torn page writes) and re-stamps the marker.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("relational: Checkpoint requires a DB opened with Open(dir, …)")
	}
	// One checkpoint at a time, and never concurrent with a BulkLoad's:
	// the durable phase below runs outside db.mu, and finishFlush's page
	// lookups assume pg.pages kept the captured layout.
	db.pagedCkptMu.Lock()
	defer db.pagedCkptMu.Unlock()
	db.mu.Lock()
	flush, err := db.captureCheckpointLocked()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return flush()
}

// captureCheckpointLocked is a checkpoint's capture phase. It returns the
// durable phase, which Checkpoint runs after releasing the writer lock and
// BulkLoad runs before. Caller holds pagedCkptMu and the writer lock.
func (db *DB) captureCheckpointLocked() (flush func() error, err error) {
	if len(db.snaps) > 0 {
		return nil, errCkptOpenTxn
	}
	if err := db.pagedErr(); err != nil {
		return nil, err
	}
	// Collapse committed version chains first: with no snapshots open the
	// vacuum horizon is unbounded, so committed-deleted rows come out of
	// their pages (dirtying them) and every captured page carries exactly
	// the committed current state — page files never need version metadata.
	db.vacuumPendingLocked()
	images, metas, err := db.capturePagedLocked()
	if err != nil {
		return nil, err
	}
	ddl := make([]string, len(db.ddlHist))
	for i, e := range db.ddlHist {
		ddl[i] = e.sql
	}
	lsn := db.wal.LastLSN()
	return func() error {
		err := db.writePagedCheckpoint(lsn, ddl, metas, images)
		db.finishFlush(images, err == nil)
		if err == nil {
			// The flush is what makes an over-budget pool shrinkable again
			// (dirty pages pin themselves in memory); sweep now rather than
			// waiting for the next admission to notice.
			db.pool.mu.Lock()
			db.pool.evictPressureLocked()
			db.pool.mu.Unlock()
		}
		return err
	}, nil
}

func (db *DB) testCkptHook(stage string) error {
	if db.ckptHook != nil {
		return db.ckptHook(stage)
	}
	return nil
}

// writePagedCheckpoint runs the durable phase: doublewrite file, in-place
// page writes, WAL checkpoint marker, doublewrite removal. On error the
// doublewrite file is left in place when it was already durable — the
// next recovery completes the checkpoint from it.
func (db *DB) writePagedCheckpoint(lsn uint64, ddl []string, metas []pagedTableMeta, images []pagedImage) error {
	payload := encodePagedPayload(db.pool.pageSize, ddl, metas)
	if err := db.writeDoublewrite(lsn, payload, images); err != nil {
		return err
	}
	if err := db.testCkptHook("dw-durable"); err != nil {
		return err
	}
	// Doublewrite is durable: in-place writes are now safe against tears.
	p := db.pool
	var files []*pager.File
	for i, im := range images {
		p.mu.Lock()
		dropped := im.pg.detached()
		if !dropped && im.pg.file == nil {
			f, err := pager.CreateFile(im.pg.filePath(), p.pageSize)
			if err != nil {
				p.mu.Unlock()
				return err
			}
			im.pg.file = f
		}
		f := im.pg.file
		p.mu.Unlock()
		if dropped {
			continue
		}
		if err := db.testCkptHook(fmt.Sprintf("page-write:%d", i)); err != nil {
			// A test-injected tear: write a partial image, then fail as a
			// crash would.
			f.WriteAt(im.img[:p.pageSize/3], int64(im.pid)*int64(p.pageSize))
			return err
		}
		if err := f.WritePage(uint32(im.pid), im.img); err != nil {
			return err
		}
		db.stats.PageWrites.Add(1)
		db.stats.DirtyFlushes.Add(1)
		files = append(files, f)
	}
	seen := map[*pager.File]bool{}
	for _, f := range files {
		if seen[f] {
			continue
		}
		seen[f] = true
		if err := f.Sync(); err != nil {
			return err
		}
	}
	if err := db.testCkptHook("pages-durable"); err != nil {
		return err
	}
	if err := db.wal.WriteCheckpoint(lsn, payload); err != nil {
		return err
	}
	if err := db.testCkptHook("marked"); err != nil {
		return err
	}
	os.Remove(filepath.Join(db.pagedDir, dwFileName))
	return nil
}

// ---- doublewrite buffer ----
// dw.buf is a complete pending checkpoint: the marker payload plus every
// page image, CRC-framed as one unit via write-to-temp + fsync + rename.
// Recovery finding a valid dw.buf finishes the checkpoint (idempotently:
// images re-apply byte-identically); a torn dw.tmp or missing dw.buf
// means the checkpoint never started mattering.

const dwFileName = "dw.buf"
const dwMagic = "XDW1"

func encodeDoublewrite(lsn uint64, payload []byte, images []pagedImage) []byte {
	b := []byte(dwMagic)
	b = binary.BigEndian.AppendUint64(b, lsn)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	b = binary.AppendUvarint(b, uint64(len(images)))
	for _, im := range images {
		b = binary.AppendUvarint(b, uint64(len(im.pg.key)))
		b = append(b, im.pg.key...)
		b = binary.AppendUvarint(b, uint64(im.pid))
		b = append(b, im.img...)
	}
	// Whole-file checksum after the magic, stamped into a trailer.
	return binary.BigEndian.AppendUint32(b, crcOf(b[len(dwMagic):]))
}

type dwImage struct {
	table string
	pid   int32
	img   []byte
}

// decodeDoublewrite validates and parses a doublewrite file. Any
// corruption (including a torn page image inside) fails the whole file.
func decodeDoublewrite(b []byte, pageSize int) (lsn uint64, payload []byte, images []dwImage, err error) {
	bad := func(why string) (uint64, []byte, []dwImage, error) {
		return 0, nil, nil, fmt.Errorf("relational: invalid doublewrite buffer: %s", why)
	}
	if len(b) < len(dwMagic)+12 || string(b[:len(dwMagic)]) != dwMagic {
		return bad("short or bad magic")
	}
	body, trailer := b[len(dwMagic):len(b)-4], b[len(b)-4:]
	if crcOf(body) != binary.BigEndian.Uint32(trailer) {
		return bad("checksum mismatch")
	}
	lsn = binary.BigEndian.Uint64(body)
	body = body[8:]
	pl, n := binary.Uvarint(body)
	if n <= 0 || pl > uint64(len(body)-n) {
		return bad("payload length")
	}
	payload = body[n : n+int(pl)]
	body = body[n+int(pl):]
	count, n := binary.Uvarint(body)
	if n <= 0 || count > uint64(len(body)) {
		return bad("image count")
	}
	body = body[n:]
	for i := uint64(0); i < count; i++ {
		nl, n := binary.Uvarint(body)
		if n <= 0 || nl > uint64(len(body)-n) {
			return bad("table name")
		}
		name := string(body[n : n+int(nl)])
		body = body[n+int(nl):]
		pid, n := binary.Uvarint(body)
		if n <= 0 || len(body)-n < pageSize {
			return bad("page image")
		}
		images = append(images, dwImage{table: name, pid: int32(pid), img: body[n : n+pageSize]})
		body = body[n+pageSize:]
	}
	if len(body) != 0 {
		return bad("trailing bytes")
	}
	return lsn, payload, images, nil
}

func (db *DB) writeDoublewrite(lsn uint64, payload []byte, images []pagedImage) error {
	data := encodeDoublewrite(lsn, payload, images)
	tmp := filepath.Join(db.pagedDir, "dw.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.pagedDir, dwFileName)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDirBestEffort(db.pagedDir)
	db.stats.PageWrites.Add(int64(len(images)))
	return nil
}

// recoverDoublewrite completes a checkpoint interrupted between its
// doublewrite rename and its marker: re-apply every page image, fsync,
// re-stamp the marker, and remove the buffer. A torn or absent buffer
// means nothing to do (the old checkpoint + WAL cover recovery).
func (db *DB) recoverDoublewrite(l *wal.Log) error {
	path := filepath.Join(db.pagedDir, dwFileName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		os.Remove(filepath.Join(db.pagedDir, "dw.tmp"))
		return nil
	}
	if err != nil {
		return err
	}
	// Page size rides in the payload; peek it before decoding images.
	ps := peekPagedPageSize(data)
	if ps == 0 {
		// Torn buffer: the checkpoint never became the recovery source.
		os.Remove(path)
		return nil
	}
	lsn, payload, images, err := decodeDoublewrite(data, ps)
	if err != nil {
		os.Remove(path)
		return nil
	}
	files := map[string]*pager.File{}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, im := range images {
		f := files[im.table]
		if f == nil {
			f, err = pager.OpenFile(filepath.Join(db.pagedDir, pagedFileName(im.table)), ps)
			if err != nil {
				return err
			}
			files[im.table] = f
		}
		if err := f.WritePage(uint32(im.pid), im.img); err != nil {
			return err
		}
	}
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	if err := l.WriteCheckpoint(lsn, payload); err != nil {
		return err
	}
	os.Remove(path)
	syncDirBestEffort(db.pagedDir)
	return nil
}

// peekPagedPageSize extracts the page size from a doublewrite file's
// embedded v2 payload without full validation (0 when unreadable).
func peekPagedPageSize(b []byte) int {
	if len(b) < len(dwMagic)+12 {
		return 0
	}
	body := b[len(dwMagic)+8:]
	pl, n := binary.Uvarint(body)
	if n <= 0 || pl > uint64(len(body)-n) {
		return 0
	}
	payload := body[n : n+int(pl)]
	ps, _, _, err := decodePagedPayload(payload)
	if err != nil {
		return 0
	}
	return ps
}

// ---- checkpoint payload v2 ----
// "RCKP2", uvarint page size, uvarint DDL count and per statement uvarint
// length + SQL text, then uvarint table count and per table: name,
// rid-space size, page count.
// The page data itself lives in the page files — this marker stays small
// no matter how large the database is.

const ckptMagicV2 = "RCKP2"

func encodePagedPayload(pageSize int, ddl []string, metas []pagedTableMeta) []byte {
	b := []byte(ckptMagicV2)
	b = binary.AppendUvarint(b, uint64(pageSize))
	b = binary.AppendUvarint(b, uint64(len(ddl)))
	for _, sql := range ddl {
		b = binary.AppendUvarint(b, uint64(len(sql)))
		b = append(b, sql...)
	}
	b = binary.AppendUvarint(b, uint64(len(metas)))
	for _, m := range metas {
		b = binary.AppendUvarint(b, uint64(len(m.name)))
		b = append(b, m.name...)
		b = binary.AppendUvarint(b, uint64(m.nrows))
		b = binary.AppendUvarint(b, uint64(m.npages))
	}
	return b
}

func decodePagedPayload(data []byte) (pageSize int, ddl []string, metas []pagedTableMeta, err error) {
	bad := func(why string) (int, []string, []pagedTableMeta, error) {
		return 0, nil, nil, fmt.Errorf("relational: bad v2 checkpoint payload: %s", why)
	}
	if len(data) < len(ckptMagicV2) || string(data[:len(ckptMagicV2)]) != ckptMagicV2 {
		return bad("magic")
	}
	b := data[len(ckptMagicV2):]
	ps, n := binary.Uvarint(b)
	if n <= 0 || ps < uint64(pager.MinPageSize) || ps > 1<<26 {
		return bad("page size")
	}
	b = b[n:]
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return bad("DDL count")
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		ln, n := binary.Uvarint(b)
		if n <= 0 || ln > uint64(len(b)-n) {
			return bad("DDL entry")
		}
		ddl = append(ddl, string(b[n:n+int(ln)]))
		b = b[n+int(ln):]
	}
	count, n = binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)) {
		return bad("table count")
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		nl, n := binary.Uvarint(b)
		if n <= 0 || nl > uint64(len(b)-n) {
			return bad("table name")
		}
		m := pagedTableMeta{name: string(b[n : n+int(nl)])}
		b = b[n+int(nl):]
		// Rids and page ids are int32 in memory (pagedTable.dir), which
		// bounds both counts.
		v, n := binary.Uvarint(b)
		if n <= 0 || v > math.MaxInt32 {
			return bad("row count")
		}
		m.nrows = int(v)
		b = b[n:]
		v, n = binary.Uvarint(b)
		if n <= 0 || v > math.MaxInt32 {
			return bad("page count")
		}
		m.npages = int(v)
		b = b[n:]
		metas = append(metas, m)
	}
	if len(b) != 0 {
		return bad("trailing bytes")
	}
	return int(ps), ddl, metas, nil
}

// ---- recovery attach ----

// attachPagedTables loads the checkpointed page files described by metas
// into the (already schema-recovered) tables: directories and page
// metadata rebuild from the files, rows stream through the pool — which
// evicts as it fills, so attaching a database much larger than the pool
// stays bounded — and indexes rebuild incrementally. A page failing its
// checksum here fails recovery loudly: with the doublewrite buffer
// already replayed, a bad page is real corruption, and it must never be
// served as data. A page file attached to its table is closed by
// auditPaged, on success or failure alike.
func (db *DB) attachPagedTables(metas []pagedTableMeta) error {
	p := db.pool
	for _, m := range metas {
		key := strings.ToLower(m.name)
		t := db.tables[key]
		if t == nil || t.pg == nil {
			return fmt.Errorf("relational: checkpoint references unknown or unpaged table %q", m.name)
		}
		pg := t.pg
		t.rows = make([][]Value, m.nrows)
		t.live = 0
		pg.dir = make([]int32, m.nrows)
		for i := range pg.dir {
			pg.dir[i] = pgDead
		}
		if m.npages == 0 {
			continue
		}
		// The rows index one by one as their pages decode; an index on a
		// unique column takes a key per row, so it is sized for all of them.
		for _, idx := range t.hashList {
			if t.isUnique(idx.col) {
				idx.rids.reset(m.nrows)
			}
		}
		f, err := pager.OpenFile(filepath.Join(db.pagedDir, pagedFileName(key)), p.pageSize)
		if err != nil {
			return err
		}
		pg.file = f
		if f.NumPages() < m.npages {
			return fmt.Errorf("relational: table %s page file holds %d pages, checkpoint expects %d", m.name, f.NumPages(), m.npages)
		}
		pg.pages = make([]*pageInfo, 0, m.npages)
		pg.fill = nil
		buf := make([]byte, p.pageSize)
		for pid := 0; pid < m.npages; pid++ {
			if err := f.ReadPage(uint32(pid), buf); err != nil {
				return fmt.Errorf("relational: recovering table %s: %w", m.name, err)
			}
			db.stats.PageReads.Add(1)
			pi := &pageInfo{id: int32(pid), est: pager.HeaderSize}
			pg.pages = append(pg.pages, pi)
			err := pager.DecodePage(buf, uint32(pid), func(rid uint64, payload []byte) error {
				r := int(rid)
				if r >= m.nrows {
					return fmt.Errorf("rid %d beyond rid space %d", rid, m.nrows)
				}
				row, err := decodeRowBytes(payload)
				if err != nil {
					return err
				}
				t.rows[r] = row
				t.live++
				pg.dir[r] = pi.id
				pi.rids = append(pi.rids, int32(r))
				pi.est += pager.RecordSize(rid, len(payload))
				t.indexRow(r, row)
				return nil
			})
			if err != nil {
				return fmt.Errorf("relational: recovering table %s: %w", m.name, err)
			}
			// Stream through the pool: admitting each page applies eviction
			// pressure, so a huge table attaches under the pool budget
			// (evicted rows refault on demand later).
			p.mu.Lock()
			p.admitLocked(pg, pi)
			p.mu.Unlock()
		}
	}
	return nil
}

// auditPaged verifies at Close that no page is still pinned (a leaked
// cursor would have made eviction silently impossible) and closes the
// page files.
func (db *DB) auditPaged() error {
	var leak error
	for _, t := range db.tables {
		pg := t.pg
		if pg == nil {
			continue
		}
		for _, pi := range pg.pages {
			if pi.pins != 0 && leak == nil {
				leak = fmt.Errorf("relational: pinned-frame leak: table %s page %d closed with %d pins", t.Name, pi.id, pi.pins)
			}
		}
		if pg.file != nil {
			pg.file.Close()
			pg.file = nil
		}
	}
	return leak
}

// pagedCastagnoli is the paged layer's checksum table (same polynomial as
// the WAL and the page codec).
var pagedCastagnoli = crc32.MakeTable(crc32.Castagnoli)

func crcOf(b []byte) uint32 { return crc32.Checksum(b, pagedCastagnoli) }

// syncDirBestEffort fsyncs a directory; the doublewrite protocol treats
// failure as acceptable (a lost rename means recovering from the
// previous checkpoint, which is always valid).
func syncDirBestEffort(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// PagedPoolStats reports the pool's occupancy for tests and benchmarks.
func (db *DB) PagedPoolStats() (resident, dirty, limit int) {
	if db.pool == nil {
		return 0, 0, 0
	}
	db.pool.mu.Lock()
	defer db.pool.mu.Unlock()
	return db.pool.resident, db.pool.dirty, db.pool.limit
}
