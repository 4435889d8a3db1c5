package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// SyncMode selects the fsync policy governing when a commit is considered
// durable.
type SyncMode int

const (
	// SyncGroup batches fsyncs: committers block until a background flusher
	// syncs the log, so concurrent commits inside one batching window share
	// a single fsync. This is the default — group commit is what keeps the
	// logged write path off the concurrent read path.
	SyncGroup SyncMode = iota
	// SyncAlways fsyncs before every commit returns. Concurrent committers
	// still coalesce (a committer whose record was covered by another's
	// fsync does not sync again), but an isolated commit pays a full fsync.
	SyncAlways
	// SyncOff never fsyncs on commit. Records are still written to the OS
	// immediately, so a process crash loses nothing — only a machine crash
	// can lose the un-synced tail.
	SyncOff
)

func (m SyncMode) String() string {
	switch m {
	case SyncGroup:
		return "group"
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// ParseSyncMode parses "always", "group", or "off".
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(s) {
	case "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	default:
		return SyncGroup, fmt.Errorf("wal: unknown sync mode %q (want always, group, or off)", s)
	}
}

// Options configures a Log.
type Options struct {
	Sync SyncMode
	// GroupWindow is the batching window for SyncGroup: the background
	// flusher syncs at most once per window, and every commit inside the
	// window rides the same fsync. Default 2ms.
	GroupWindow time.Duration
	// SegmentSize is the rotation threshold. A record that would push the
	// active segment past it starts a new segment. Default 4 MiB.
	SegmentSize int64
	// Observation points, all optional (nil disables each): AppendHist
	// records per-Append wall time in nanoseconds, FsyncHist the duration
	// of each durability flush, and BatchHist the number of commit records
	// each flush made durable (the group-commit batch size).
	AppendHist *metrics.Histogram
	FsyncHist  *metrics.Histogram
	BatchHist  *metrics.Histogram
}

func (o Options) window() time.Duration {
	if o.GroupWindow <= 0 {
		return 2 * time.Millisecond
	}
	return o.GroupWindow
}

func (o Options) segmentSize() int64 {
	if o.SegmentSize <= 0 {
		return 4 << 20
	}
	return o.SegmentSize
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
)

// ckptTmpName is the checkpoint file being written, renamed into place once
// durable.
const ckptTmpName = "ckpt.tmp"

// IsLogFile reports whether a file name in a log directory belongs to the
// log: a segment, a checkpoint, or a checkpoint being written.
func IsLogFile(name string) bool {
	_, seg := parseSeq(name, segPrefix, segSuffix)
	_, ckpt := parseSeq(name, ckptPrefix, ckptSuffix)
	return seg || ckpt || name == ckptTmpName
}

func segName(firstLSN uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix) }
func ckptName(lsn uint64) string     { return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix) }
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segment is one on-disk log file. Records it holds have LSNs in
// [first, next.first-1] (the last segment runs to the log's current LSN).
type segment struct {
	first uint64
	path  string
}

// Log is a segmented redo log rooted at a directory.
//
// Locking: mu guards the append path (active file, sizes, LSN counter) and
// segment bookkeeping. syncMu guards durability state (durable LSN, sticky
// sync error) and the condition variable group-commit waiters sleep on.
// fsync itself runs under syncMu but never under mu, so appenders — who run
// inside the database's commit critical section — never wait behind a disk
// flush.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	active     *os.File
	activeSize int64
	segs       []segment // ascending by first LSN; last one is active
	lsn        uint64    // last assigned LSN
	// appendErr is sticky: a partial frame write that could not be rewound
	// leaves torn bytes mid-segment, and recovery would silently discard
	// anything appended after them — so the log fail-stops instead.
	appendErr error
	// pending holds rotated-out segment files not yet fsynced: rotation
	// happens inside Append — inside the database's commit critical
	// section — so its fsync is deferred to the durability path (syncTo),
	// which runs outside that lock. dirDirty likewise defers the directory
	// fsync a new segment file needs. Recovery tolerates the resulting
	// window (a torn earlier segment truncates everything after it), and
	// no commit is acknowledged durable until the pending files are synced
	// in order.
	pending  []*os.File
	dirDirty bool

	ckptLSN   uint64 // latest durable checkpoint's LSN
	hasCkpt   bool   // distinguishes "checkpoint at LSN 0" from "none"
	sinceCkpt int64  // bytes appended since the latest checkpoint
	closed    bool

	syncMu   sync.Mutex
	syncCond *sync.Cond
	durable  uint64 // highest LSN known to be on stable storage
	syncErr  error  // sticky: a failed fsync poisons the log
	// dirSyncOff remembers a filesystem that rejects directory fsync
	// (EINVAL/ENOTSUP); durability degrades to best effort there instead
	// of poisoning the log. Guarded by syncMu.
	dirSyncOff bool

	stopGroup chan struct{}
	groupWG   sync.WaitGroup

	ckptMu sync.Mutex // serializes Checkpoint calls

	// RecoveredCommits counts the commit records the last Open found intact
	// past the checkpoint — the replayable tail length. Crash tests use it
	// to locate the surviving prefix.
	RecoveredCommits int
}

// Open opens (or creates) the log directory, truncates any torn tail, and
// prepares the last segment for appending. Replay must be called before the
// first Append.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	l.syncCond = sync.NewCond(&l.syncMu)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ckpts []uint64
	for _, e := range entries {
		if first, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			l.segs = append(l.segs, segment{first: first, path: filepath.Join(dir, e.Name())})
		}
		if lsn, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, lsn)
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })

	// Latest checkpoint whose payload validates wins; invalid or torn
	// checkpoint files (a crash mid-checkpoint) are ignored and removed.
	for i := len(ckpts) - 1; i >= 0; i-- {
		if _, err := readCheckpointFile(filepath.Join(dir, ckptName(ckpts[i]))); err == nil {
			l.ckptLSN = ckpts[i]
			l.hasCkpt = true
			break
		}
		os.Remove(filepath.Join(dir, ckptName(ckpts[i])))
		ckpts = ckpts[:i]
	}

	if err := l.validateSegments(); err != nil {
		return nil, err
	}
	if l.lsn < l.ckptLSN {
		// Checkpointing truncates the segments it covers, so a freshly
		// checkpointed log has no records below its checkpoint.
		l.lsn = l.ckptLSN
	}

	if len(l.segs) == 0 {
		if err := l.addSegment(); err != nil {
			return nil, err
		}
	} else {
		last := l.segs[len(l.segs)-1]
		f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, err
		}
		l.active = f
		l.activeSize = st.Size()
	}

	if opts.Sync == SyncGroup {
		l.stopGroup = make(chan struct{})
		l.groupWG.Add(1)
		go l.groupLoop()
	}
	return l, nil
}

// validateSegments walks every record in LSN order, truncating the log at
// the first torn or corrupt frame. A bad frame in a non-final segment also
// deletes all later segments: the log is a consistent prefix or nothing.
func (l *Log) validateSegments() error {
	for i, seg := range l.segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		off := 0
		rest := data
		for len(rest) > 0 {
			payload, next, ok := readFrame(rest)
			if !ok {
				if err := os.Truncate(seg.path, int64(off)); err != nil {
					return err
				}
				for _, later := range l.segs[i+1:] {
					if err := os.Remove(later.path); err != nil {
						return err
					}
				}
				l.segs = l.segs[:i+1]
				return nil
			}
			lsn, _, _, derr := DecodeCommit(payload)
			if derr != nil {
				// Framed correctly but undecodable: same treatment.
				if err := os.Truncate(seg.path, int64(off)); err != nil {
					return err
				}
				for _, later := range l.segs[i+1:] {
					if err := os.Remove(later.path); err != nil {
						return err
					}
				}
				l.segs = l.segs[:i+1]
				return nil
			}
			if lsn > l.lsn {
				l.lsn = lsn
			}
			off = len(data) - len(next)
			rest = next
		}
	}
	return nil
}

// addSegment opens a fresh segment whose first record will be lsn+1. The
// directory fsync the new entry needs (so a commit fsynced into the
// segment cannot vanish with its directory entry on a machine crash) is
// deferred to the durability path via dirDirty — addSegment runs under mu,
// inside the commit critical section. Caller holds mu (or is
// initializing).
func (l *Log) addSegment() error {
	path := filepath.Join(l.dir, segName(l.lsn+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.dirDirty = true
	l.segs = append(l.segs, segment{first: l.lsn + 1, path: path})
	l.active = f
	l.activeSize = 0
	return nil
}

// Append writes one commit record and returns its LSN. stamp is the MVCC
// commit stamp the transaction committed under (0 when the engine has no
// versioned state); it rides in the record so recovery restores the stamp
// counter. The write reaches the OS before Append returns (a process crash
// cannot lose it); stable storage is governed by WaitDurable and the sync
// policy. Callers serialize Append with their own commit ordering (the
// database's writer lock), so record order always matches commit order.
func (l *Log) Append(stmts []Stmt, stamp uint64) (uint64, error) {
	if h := l.opts.AppendHist; h != nil {
		defer h.ObserveSince(time.Now())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.appendErr != nil {
		return 0, l.appendErr
	}
	payload, err := encodeCommit(l.lsn+1, stamp, stmts)
	if err != nil {
		return 0, err
	}
	if len(payload) > maxFrameSize {
		// readFrame treats anything larger as corruption at recovery, so
		// writing it would silently destroy the log tail on the next open.
		// Bulk loads never reach the log (relational.BulkLoad checkpoints
		// instead), so only a single enormous statement can get here.
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxFrameSize)
	}
	fr := frame(payload)
	if l.activeSize > 0 && l.activeSize+int64(len(fr)) > l.opts.segmentSize() {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := l.active.Write(fr); err != nil {
		// The file may now hold a torn frame; a later append would land
		// after the garbage and be silently discarded at recovery. Rewind
		// to the last good boundary; if even that fails, fail-stop.
		if terr := l.active.Truncate(l.activeSize); terr == nil {
			if _, serr := l.active.Seek(l.activeSize, 0); serr == nil {
				return 0, err
			}
		}
		l.appendErr = fmt.Errorf("wal: log poisoned by unrewindable partial write: %w", err)
		return 0, l.appendErr
	}
	l.lsn++
	l.activeSize += int64(len(fr))
	l.sinceCkpt += int64(len(fr))
	return l.lsn, nil
}

// rotateLocked retires the active segment onto the pending-sync list and
// opens the next one. No disk flush happens here — rotation runs inside
// the commit critical section; syncTo fsyncs (and closes) pending
// segments, oldest first, before acknowledging any later record durable.
func (l *Log) rotateLocked() error {
	l.pending = append(l.pending, l.active)
	return l.addSegment()
}

// WaitDurable blocks until the record at lsn is on stable storage under the
// configured policy. It never holds the append lock across an fsync, so
// appenders (and therefore the database's readers, who only wait for
// appenders) are never blocked behind the disk.
func (l *Log) WaitDurable(lsn uint64) error {
	switch l.opts.Sync {
	case SyncOff:
		return nil
	case SyncAlways:
		return l.syncTo(lsn)
	default: // SyncGroup
		l.syncMu.Lock()
		defer l.syncMu.Unlock()
		for l.durable < lsn && l.syncErr == nil {
			if l.isClosed() {
				return fmt.Errorf("wal: log closed while awaiting durability")
			}
			l.syncCond.Wait()
		}
		return l.syncErr
	}
}

func (l *Log) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// syncTo fsyncs until at least lsn is durable: the directory (if a new
// segment entry is outstanding), then rotated-out pending segments oldest
// first, then the active segment. Concurrent callers coalesce — whoever
// holds syncMu syncs the latest appended LSN, and everyone whose record
// that covered returns without touching the disk. Only files synced here
// (or in Close) are ever closed, so the snapshots taken under mu stay
// valid across the flushes.
func (l *Log) syncTo(lsn uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncErr != nil {
		return l.syncErr
	}
	if l.durable >= lsn {
		return nil
	}
	// Snapshot under mu, flush outside it. Records appended after the
	// snapshot may also become durable — harmless, durable only advances
	// to the snapshot.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log is closed")
	}
	pending := l.pending
	l.pending = nil
	f, cur, dirty := l.active, l.lsn, l.dirDirty
	l.dirDirty = false
	l.mu.Unlock()
	flushStart := time.Now()
	poison := func(err error, unsynced []*os.File) error {
		for _, pf := range unsynced {
			pf.Close() // off l.pending already; close here or leak
		}
		l.syncErr = err
		l.syncCond.Broadcast()
		return err
	}
	if dirty && !l.dirSyncOff {
		if err := syncDir(l.dir); err != nil {
			// Filesystems that cannot fsync directories (EINVAL/ENOTSUP)
			// get best-effort semantics; a real I/O error on the path that
			// acknowledges durability must fail-stop like a file fsync.
			if dirSyncUnsupported(err) {
				l.dirSyncOff = true
			} else {
				return poison(err, pending)
			}
		}
	}
	for i, pf := range pending {
		if err := pf.Sync(); err != nil {
			return poison(err, pending[i:])
		}
		pf.Close()
	}
	if err := f.Sync(); err != nil {
		// Close may have closed the active file concurrently; its own Sync
		// already covered these records then. Anything else is a real
		// durability failure.
		l.mu.Lock()
		wasClosed := l.closed
		l.mu.Unlock()
		if !wasClosed {
			return poison(err, nil)
		}
	}
	l.opts.FsyncHist.ObserveSince(flushStart)
	if cur > l.durable {
		// The records this flush newly acknowledged form one group-commit
		// batch.
		l.opts.BatchHist.Observe(int64(cur - l.durable))
		l.durable = cur
	}
	l.syncCond.Broadcast()
	return nil
}

// groupLoop is the SyncGroup flusher: once per window it makes everything
// appended so far durable and wakes the committers waiting on it.
func (l *Log) groupLoop() {
	defer l.groupWG.Done()
	for {
		select {
		case <-l.stopGroup:
			return
		case <-time.After(l.opts.window()):
		}
		l.mu.Lock()
		cur, closed := l.lsn, l.closed
		l.mu.Unlock()
		if closed {
			return
		}
		l.syncMu.Lock()
		dirty := l.durable < cur && l.syncErr == nil
		l.syncMu.Unlock()
		if dirty {
			l.syncTo(cur)
		}
	}
}

// LastLSN returns the most recently assigned LSN.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// SizeSinceCheckpoint returns bytes appended since the latest checkpoint —
// the auto-checkpoint trigger input.
func (l *Log) SizeSinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt
}

// CheckpointLSN returns the LSN covered by the latest checkpoint.
func (l *Log) CheckpointLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptLSN
}

// Replay streams every intact commit record past the checkpoint, in LSN
// order, to fn along with its commit stamp (0 for pre-stamp records). Call
// it once, after Open and before the first Append.
func (l *Log) Replay(fn func(stamp uint64, stmts []Stmt) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	ckpt := uint64(0)
	if l.hasCkpt {
		ckpt = l.ckptLSN
	}
	l.mu.Unlock()
	n := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		rest := data
		for len(rest) > 0 {
			payload, next, ok := readFrame(rest)
			if !ok {
				// validateSegments already truncated; anything left is a
				// race with an external writer, which is unsupported.
				return fmt.Errorf("wal: unexpected corrupt frame during replay in %s", seg.path)
			}
			lsn, stamp, stmts, err := DecodeCommit(payload)
			if err != nil {
				return err
			}
			if lsn > ckpt {
				if err := fn(stamp, stmts); err != nil {
					return fmt.Errorf("wal: replaying record %d: %w", lsn, err)
				}
				n++
			}
			rest = next
		}
	}
	l.RecoveredCommits = n
	return nil
}

// Sync forces everything appended so far onto stable storage, regardless of
// policy.
func (l *Log) Sync() error {
	return l.syncTo(l.LastLSN())
}

// Close makes the log durable and releases its files. Further appends fail.
func (l *Log) Close() error {
	if l.stopGroup != nil {
		close(l.stopGroup)
		l.groupWG.Wait()
		l.stopGroup = nil
	}
	err := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	// Sync drained the pending list on success; on failure, sweep whatever
	// is left so no file handles leak.
	for _, pf := range l.pending {
		pf.Close()
	}
	l.pending = nil
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	// Wake any group-commit waiters so they observe the closed state.
	l.syncCond.Broadcast()
	return err
}
