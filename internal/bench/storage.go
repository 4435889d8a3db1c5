package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/relational"
)

// Storage experiment: prices the paged backend against the default
// in-memory backend along the three axes the design trades on — pool size
// vs scan cost (caching), checkpoint bytes (dirty-page redo vs whole-snapshot
// re-encode), and larger-than-RAM document reconstruction. Like readers it
// is opt-in (`-exp storage`), not part of "all": the sweep writes real page
// files and its timings are disk-sensitive.

// PoolSweepPoint is one pool-size measurement over a fixed paged dataset:
// repeated full scans with PoolPages resident frames.
type PoolSweepPoint struct {
	PoolPages int
	// FilePages is the physical page count of the dataset, so
	// PoolPages/FilePages is the fraction of the data that fits in RAM.
	FilePages int64
	// HitRatio is PoolHits/(PoolHits+PoolMisses) over the timed scans;
	// Evictions counts CLOCK victims during them.
	HitRatio  float64
	Evictions int64
	// Seconds is the min-of-runs wall time for one full scan, and
	// RowsPerSec the scan throughput derived from it.
	Seconds    float64
	RowsPerSec float64
}

// CheckpointCost is one side of the checkpoint A/B: the bytes and wall time
// one checkpoint costs after a small update batch touched Updated of Rows
// rows.
type CheckpointCost struct {
	Backend string
	Rows    int
	Updated int
	// Bytes is what the checkpoint physically writes: dirty pages plus
	// their doublewrite copies for paged, the full re-encoded snapshot
	// for memory.
	Bytes   int64
	Seconds float64
}

// SOUPoint times structure-of-update document reconstruction (the engine's
// Reconstruct walk) with the shredded tables either fully in memory or
// behind a buffer pool several times smaller than the page file.
type SOUPoint struct {
	Backend   string
	Tuples    int
	PoolPages int
	FilePages int64
	Seconds   float64
	PageReads int64
	Evictions int64
}

// StorageResult bundles the three storage scenarios.
type StorageResult struct {
	Sweep      []PoolSweepPoint
	Checkpoint []CheckpointCost
	SOU        []SOUPoint
}

// storageScale fixes the dataset: Rows table rows of ~64-byte payload on
// 1KiB pages, small enough that quick mode stays under a second per point.
type storageScale struct {
	rows     int
	scans    int
	pageSize int
	updated  int
	sweep    []int
}

func storageScaleFor(cfg Config) storageScale {
	s := storageScale{rows: 4000, scans: 12, pageSize: 1024, sweep: []int{8, 16, 32, 64, 128, 256}}
	if cfg.Quick {
		s = storageScale{rows: 1200, scans: 4, pageSize: 1024, sweep: []int{8, 32, 128}}
	}
	s.updated = s.rows / 100
	return s
}

// RunStorage runs the pool-size sweep, the checkpoint-cost A/B, and the
// larger-than-RAM SOU reconstruction.
func RunStorage(cfg Config) (*StorageResult, error) {
	sc := storageScaleFor(cfg)
	res := &StorageResult{}

	for _, pool := range sc.sweep {
		pt, err := sweepPoint(cfg, sc, pool)
		if err != nil {
			return nil, fmt.Errorf("storage sweep pool=%d: %w", pool, err)
		}
		res.Sweep = append(res.Sweep, pt)
	}

	paged, err := checkpointCost(cfg, sc, true)
	if err != nil {
		return nil, fmt.Errorf("storage checkpoint paged: %w", err)
	}
	mem, err := checkpointCost(cfg, sc, false)
	if err != nil {
		return nil, fmt.Errorf("storage checkpoint memory: %w", err)
	}
	res.Checkpoint = append(res.Checkpoint, paged, mem)

	sou, err := souPoints(cfg)
	if err != nil {
		return nil, fmt.Errorf("storage sou: %w", err)
	}
	res.SOU = sou
	return res, nil
}

// openStorageDB opens a fresh temp-dir store (caller removes dir) and loads
// the fixed row set: id, parentId cycling over 8 groups, and a padded
// payload so each 1KiB page holds only a handful of rows.
func openStorageDB(sc storageScale, opts relational.Options) (string, *relational.DB, error) {
	dir, err := os.MkdirTemp("", "xbench-storage-")
	if err != nil {
		return "", nil, err
	}
	db, err := relational.Open(dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	fail := func(err error) (string, *relational.DB, error) {
		db.Close()
		os.RemoveAll(dir)
		return "", nil, err
	}
	if _, err := db.Exec("CREATE TABLE item (id INTEGER, parentId INTEGER, v VARCHAR(80))"); err != nil {
		return fail(err)
	}
	ins, err := db.Prepare("INSERT INTO item VALUES (?, ?, ?)")
	if err != nil {
		return fail(err)
	}
	for i := 0; i < sc.rows; i++ {
		v := fmt.Sprintf("payload-%05d-%056d", i, i)
		if _, err := ins.Exec(relational.Int(int64(i+1)), relational.Int(int64(i%8)), relational.Text(v)); err != nil {
			return fail(err)
		}
	}
	return dir, db, nil
}

func pagedStorageOpts(sc storageScale, pool int) relational.Options {
	return relational.Options{
		Sync: relational.SyncOff, CheckpointBytes: -1,
		Storage: relational.StoragePaged, PoolPages: pool, PageSize: sc.pageSize,
	}
}

func sweepPoint(cfg Config, sc storageScale, pool int) (PoolSweepPoint, error) {
	var pt PoolSweepPoint
	dir, db, err := openStorageDB(sc, pagedStorageOpts(sc, pool))
	if err != nil {
		return pt, err
	}
	defer os.RemoveAll(dir)
	defer db.Close()
	// Checkpoint flushes the loaded pages and sweeps the pool down to its
	// limit, so the timed scans start from the steady state. DirtyFlushes
	// counts each page written in place exactly once — the file page count.
	if err := db.Checkpoint(); err != nil {
		return pt, err
	}
	pt.PoolPages = pool
	pt.FilePages = db.Stats().DirtyFlushes
	db.ResetStats()

	scan := func() error {
		rows, err := db.Query("SELECT COUNT(*) FROM item WHERE v <> ''")
		if err != nil {
			return err
		}
		if got := rows.Data[0][0].MustInt(); got != int64(sc.rows) {
			return fmt.Errorf("scan saw %d rows, want %d", got, sc.rows)
		}
		return nil
	}
	for run := 0; run <= cfg.runs(); run++ {
		start := time.Now()
		for i := 0; i < sc.scans; i++ {
			if err := scan(); err != nil {
				return pt, err
			}
		}
		elapsed := time.Since(start).Seconds() / float64(sc.scans)
		if run == 0 {
			db.ResetStats() // warm-up, discarded
			continue
		}
		if pt.Seconds == 0 || elapsed < pt.Seconds {
			pt.Seconds = elapsed
		}
	}
	st := db.Stats()
	if probes := st.PoolHits + st.PoolMisses; probes > 0 {
		pt.HitRatio = float64(st.PoolHits) / float64(probes)
	}
	pt.Evictions = st.Evictions
	pt.RowsPerSec = float64(sc.rows) / pt.Seconds
	recordStats(db)
	return pt, nil
}

func checkpointCost(cfg Config, sc storageScale, paged bool) (CheckpointCost, error) {
	pt := CheckpointCost{Backend: "memory", Rows: sc.rows, Updated: sc.updated}
	opts := relational.Options{Sync: relational.SyncOff, CheckpointBytes: -1}
	if paged {
		pt.Backend = "paged"
		opts = pagedStorageOpts(sc, 256)
	}
	dir, db, err := openStorageDB(sc, opts)
	if err != nil {
		return pt, err
	}
	defer os.RemoveAll(dir)
	defer db.Close()
	// Baseline checkpoint: the A/B measures the *incremental* cost after a
	// small batch, so the load itself must already be on disk.
	if err := db.Checkpoint(); err != nil {
		return pt, err
	}
	upd, err := db.Prepare("UPDATE item SET v = ? WHERE id = ?")
	if err != nil {
		return pt, err
	}
	for run := 0; run <= cfg.runs(); run++ {
		for i := 0; i < sc.updated; i++ {
			id := int64((run*sc.updated+i)%sc.rows) + 1
			v := fmt.Sprintf("touched-%03d-%d", run, i)
			if _, err := upd.Exec(relational.Text(v), relational.Int(id)); err != nil {
				return pt, err
			}
		}
		db.ResetStats()
		start := time.Now()
		if err := db.Checkpoint(); err != nil {
			return pt, err
		}
		elapsed := time.Since(start).Seconds()
		if run == 0 {
			continue // warm-up, discarded
		}
		var bytes int64
		if paged {
			// PageWrites counts doublewrite copies and in-place writes, so
			// this is the full physical write cost of the no-steal protocol.
			bytes = db.Stats().PageWrites * int64(sc.pageSize)
		} else {
			enc, err := relational.EncodeSnapshot(db.Snapshot())
			if err != nil {
				return pt, err
			}
			bytes = int64(len(enc))
		}
		if pt.Seconds == 0 || elapsed < pt.Seconds {
			pt.Seconds = elapsed
			pt.Bytes = bytes
		}
	}
	recordStats(db)
	return pt, nil
}

// souPoints shreds a DBLP-like document and times full SOU reconstruction
// on the memory backend versus a paged store whose pool holds only a small
// fraction of the page file.
func souPoints(cfg Config) ([]SOUPoint, error) {
	p := datagen.DBLPParams{Conferences: 24, PubsPerConf: 40, Seed: 7}
	if cfg.Quick {
		p = datagen.DBLPParams{Conferences: 8, PubsPerConf: 20, Seed: 7}
	}
	doc := datagen.DBLP(p)
	const poolPages = 8

	var out []SOUPoint
	for _, paged := range []bool{false, true} {
		dir, err := os.MkdirTemp("", "xbench-sou-")
		if err != nil {
			return nil, err
		}
		dopts := relational.Options{Sync: relational.SyncOff, CheckpointBytes: -1}
		pt := SOUPoint{Backend: "memory"}
		if paged {
			dopts.Storage = relational.StoragePaged
			dopts.PoolPages = poolPages
			dopts.PageSize = 1024
			pt.Backend = "paged"
			pt.PoolPages = poolPages
		}
		s, err := engine.OpenDir(dir, doc, engine.Options{}, dopts)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if err := s.Checkpoint(); err != nil {
			s.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		pt.Tuples = s.TupleCount()
		pt.FilePages = s.DB.Stats().DirtyFlushes
		for run := 0; run <= cfg.runs(); run++ {
			s.DB.ResetStats()
			start := time.Now()
			if _, err := s.Reconstruct(); err != nil {
				s.Close()
				os.RemoveAll(dir)
				return nil, err
			}
			elapsed := time.Since(start).Seconds()
			if run == 0 {
				continue // warm-up, discarded
			}
			if pt.Seconds == 0 || elapsed < pt.Seconds {
				pt.Seconds = elapsed
				st := s.DB.Stats()
				pt.PageReads = st.PageReads
				pt.Evictions = st.Evictions
			}
		}
		recordStats(s.DB)
		s.Close()
		os.RemoveAll(dir)
		out = append(out, pt)
	}
	return out, nil
}

// WriteStorage renders the three scenarios as aligned tables.
func WriteStorage(w io.Writer, res *StorageResult) {
	fmt.Fprintln(w, "storage: paged backend — pool-size sweep (full scans over a fixed page file)")
	fmt.Fprintf(w, "%10s %10s %10s %10s %12s %14s\n", "pool", "file pgs", "hit ratio", "evictions", "scan(s)", "rows/s")
	for _, p := range res.Sweep {
		fmt.Fprintf(w, "%10d %10d %10.3f %10d %12.6f %14.0f\n",
			p.PoolPages, p.FilePages, p.HitRatio, p.Evictions, p.Seconds, p.RowsPerSec)
	}
	fmt.Fprintln(w, "\nstorage: checkpoint cost after a ~1% update batch (paged dirty-page redo vs memory full snapshot)")
	fmt.Fprintf(w, "%10s %8s %9s %12s %12s\n", "backend", "rows", "updated", "bytes", "time(s)")
	for _, p := range res.Checkpoint {
		fmt.Fprintf(w, "%10s %8d %9d %12d %12.6f\n", p.Backend, p.Rows, p.Updated, p.Bytes, p.Seconds)
	}
	fmt.Fprintln(w, "\nstorage: SOU reconstruction, in-memory vs larger-than-RAM buffer pool")
	fmt.Fprintf(w, "%10s %8s %6s %10s %12s %11s %10s\n", "backend", "tuples", "pool", "file pgs", "time(s)", "page reads", "evictions")
	for _, p := range res.SOU {
		fmt.Fprintf(w, "%10s %8d %6d %10d %12.6f %11d %10d\n",
			p.Backend, p.Tuples, p.PoolPages, p.FilePages, p.Seconds, p.PageReads, p.Evictions)
	}
}
