package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// Checkpoint files. A checkpoint is an opaque payload (the relational layer
// writes schema history + page-file metadata into it) covering every
// record with LSN ≤ its stamp. The file itself is CRC-framed like a log
// record and written via rename, so a crash mid-checkpoint leaves either
// the previous checkpoint or a file Open detects as invalid and discards —
// never a half-trusted one.

// WriteCheckpoint durably writes a checkpoint covering all records with
// LSN ≤ lsn, then prunes: segments whose records are all covered are
// deleted, as are older checkpoint files. The caller guarantees the payload
// reflects at least the state at lsn (it captures both under the database
// lock, excluding concurrent commits).
func (l *Log) WriteCheckpoint(lsn uint64, payload []byte) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.Lock()
	behind := l.hasCkpt && lsn < l.ckptLSN
	l.mu.Unlock()
	if behind {
		return fmt.Errorf("wal: checkpoint LSN %d behind existing %d", lsn, l.CheckpointLSN())
	}

	// The log tail must be durable before record deletion below it can be
	// considered; syncing first also means recovery never needs a record
	// the checkpoint superseded.
	if err := l.Sync(); err != nil {
		return err
	}

	tmp := filepath.Join(l.dir, ckptTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame(payload)); err != nil {
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
	final := filepath.Join(l.dir, ckptName(lsn))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(l.dir)

	// Rotate so the active segment holds only post-checkpoint records, then
	// prune fully covered segments and superseded checkpoints.
	l.mu.Lock()
	prevCkpt, prevHad := l.ckptLSN, l.hasCkpt
	l.ckptLSN = lsn
	l.hasCkpt = true
	l.sinceCkpt = 0
	if l.activeSize > 0 {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	var keep []segment
	var rmErr error
	for i, seg := range l.segs {
		covered := false
		if i+1 < len(l.segs) {
			// Segment i holds LSNs [seg.first, next.first-1].
			covered = l.segs[i+1].first-1 <= lsn
		}
		if !covered {
			keep = append(keep, seg)
			continue
		}
		// A removal failure keeps the segment listed for the next attempt;
		// already-gone files (a retry after such a failure) are success.
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			rmErr = err
			keep = append(keep, seg)
		}
	}
	l.segs = keep
	l.mu.Unlock()
	if rmErr != nil {
		return fmt.Errorf("wal: pruning checkpointed segments: %w", rmErr)
	}

	if prevHad && prevCkpt != lsn {
		os.Remove(filepath.Join(l.dir, ckptName(prevCkpt)))
	}
	syncDir(l.dir)
	return nil
}

// ReadCheckpoint returns the latest valid checkpoint payload, or ok=false
// when the log has none.
func (l *Log) ReadCheckpoint() (payload []byte, lsn uint64, ok bool, err error) {
	l.mu.Lock()
	lsn, ok = l.ckptLSN, l.hasCkpt
	l.mu.Unlock()
	if !ok {
		return nil, 0, false, nil
	}
	payload, err = readCheckpointFile(filepath.Join(l.dir, ckptName(lsn)))
	if err != nil {
		return nil, 0, false, err
	}
	return payload, lsn, true, nil
}

// readCheckpointFile reads and CRC-validates one checkpoint file.
func readCheckpointFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, rest, ok := readFrame(data)
	if !ok || len(rest) != 0 {
		return nil, fmt.Errorf("wal: corrupt checkpoint file %s", path)
	}
	return payload, nil
}

// syncDir fsyncs a directory so file creations, renames, and removals are
// durable. The durability-acknowledgment path (wal.syncTo) treats its
// error as a sync failure; the checkpoint path uses it best-effort (a lost
// checkpoint rename just means recovering from the previous one).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// dirSyncUnsupported reports an error meaning the filesystem cannot fsync
// directories at all (as opposed to an I/O failure).
func dirSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.ENOTTY)
}
