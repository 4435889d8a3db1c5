package pager

import (
	"fmt"
	"os"
	"sync/atomic"
)

// File is one relation's page file: page i lives at byte offset
// i*pageSize. Pages are written in place (the durability protocol above
// this layer — doublewrite plus WAL replay — makes in-place writes
// crash-safe) and read back with checksum verification. Reads and writes
// target disjoint offsets under the buffer pool's no-steal protocol (a
// page being flushed is resident, so no fault can race its bytes), but a
// checkpoint appending pages runs concurrently with reader faults — the
// page count is atomic so that extension is safe to observe.
type File struct {
	f        *os.File
	path     string
	pageSize int
	npages   atomic.Int64
}

// CreateFile opens a fresh, empty page file, truncating any stale file
// left by an earlier incarnation of the relation.
func CreateFile(path string, pageSize int) (*File, error) {
	return openFile(path, pageSize, true)
}

// OpenFile opens an existing page file, deriving its page count from the
// file length. A length that is not a whole number of pages means the
// file itself was torn mid-extension; the partial trailing page is
// dropped (it can only belong to an unacknowledged checkpoint, which the
// recovery protocol re-applies or discards as a unit).
func OpenFile(path string, pageSize int) (*File, error) {
	return openFile(path, pageSize, false)
}

func openFile(path string, pageSize int, create bool) (*File, error) {
	if pageSize < MinPageSize {
		return nil, fmt.Errorf("pager: page size %d below minimum %d", pageSize, MinPageSize)
	}
	flags := os.O_RDWR | os.O_CREATE
	if create {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	pf := &File{f: f, path: path, pageSize: pageSize}
	pf.npages.Store(st.Size() / int64(pageSize))
	return pf, nil
}

// PageSize returns the file's page size.
func (pf *File) PageSize() int { return pf.pageSize }

// NumPages returns the number of whole pages the file holds.
func (pf *File) NumPages() int { return int(pf.npages.Load()) }

// ReadPage reads page pid into buf (which must be pageSize bytes) and
// verifies it (Verify): a corrupt page is reported before any record byte
// is trusted. It returns the verified record count and record region, a
// slice of buf.
func (pf *File) ReadPage(pid uint32, buf []byte) (count int, records []byte, err error) {
	if len(buf) != pf.pageSize {
		return 0, nil, fmt.Errorf("pager: read buffer %d bytes, page size %d", len(buf), pf.pageSize)
	}
	if n := pf.npages.Load(); int64(pid) >= n {
		return 0, nil, fmt.Errorf("pager: page %d beyond file (%d pages)", pid, n)
	}
	if _, err := pf.f.ReadAt(buf, int64(pid)*int64(pf.pageSize)); err != nil {
		return 0, nil, fmt.Errorf("pager: reading page %d: %w", pid, err)
	}
	return Verify(buf, pid)
}

// WritePage writes a sealed page image in place, extending the file when
// pid is the next page. Writing further past the end zero-fills the gap
// pages; they fail verification if ever read, which recovery treats the
// same as any other invalid page.
func (pf *File) WritePage(pid uint32, page []byte) error {
	if len(page) != pf.pageSize {
		return fmt.Errorf("pager: page image %d bytes, page size %d", len(page), pf.pageSize)
	}
	if _, err := pf.f.WriteAt(page, int64(pid)*int64(pf.pageSize)); err != nil {
		return fmt.Errorf("pager: writing page %d: %w", pid, err)
	}
	for {
		n := pf.npages.Load()
		if int64(pid) < n || pf.npages.CompareAndSwap(n, int64(pid)+1) {
			break
		}
	}
	return nil
}

// WriteAt exposes raw positioned writes for tests that simulate torn
// physical writes; normal callers use WritePage.
func (pf *File) WriteAt(b []byte, off int64) (int, error) { return pf.f.WriteAt(b, off) }

// Sync flushes written pages to stable storage.
func (pf *File) Sync() error { return pf.f.Sync() }

// Close releases the file handle.
func (pf *File) Close() error { return pf.f.Close() }

// Remove closes and deletes the file.
func (pf *File) Remove() error {
	pf.f.Close()
	if err := os.Remove(pf.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
