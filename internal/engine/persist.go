package engine

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/asr"
	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

// Persistent stores. OpenDir roots a Store in a directory backed by the
// relational layer's write-ahead log: the first open shreds the document
// with a checkpointed bulk load and persists the mapping's provenance (the
// serialized DTD, root element, and options) in a metadata table through
// the log; later opens recover the database from checkpoint + log and
// rebuild the mapping from the stored DTD — no document needed. Update
// statements executed through the store commit through the log, so a crash
// between invocations of xupdate/xshred loses nothing that was committed.

// metaTable is the store's metadata relation: a key/value table written
// through SQL so its contents ride the same redo log as the data. It holds
// the serialized DTD, the root element name, the options the schema was
// generated under, and the systemwide next-available-id counter (updated
// inside each update's transaction, so id allocation survives both
// rollbacks and crashes).
const metaTable = "_xmeta"

// OpenDir opens (or initializes) a persistent store. doc may be nil when
// the directory already holds a store; when it is needed (first open) it
// must carry a DTD. opts apply only at initialization — a reopened store
// runs under the options it was created with, which the schema, triggers,
// and ASR on disk were generated from.
//
// Initialization is crash-atomic by detection, not by a single commit: the
// metadata's 'nextid' row is written last, so a directory whose recovered
// state has tables but no complete metadata is a half-built store — OpenDir
// removes every file the relational layer reads (relational.RemoveFiles)
// and redoes the initialization from the document (the data so far was
// nothing but that same shred).
func OpenDir(dir string, doc *xmltree.Document, opts Options, dopts relational.Options) (*Store, error) {
	db, err := relational.Open(dir, dopts)
	if err != nil {
		return nil, err
	}
	switch storeState(db) {
	case stateReady:
		s, err := reopen(db, doc)
		if err != nil {
			db.Close()
			return nil, err
		}
		return s, nil
	case statePartial:
		// Crash mid-initialization. Nothing beyond the interrupted shred
		// ever lived here (updates require a complete store), so discard
		// the log and start over.
		db.Close()
		if doc == nil {
			return nil, fmt.Errorf("engine: directory holds a half-initialized store; re-run OpenDir with the document to rebuild it")
		}
		if err := relational.RemoveFiles(dir); err != nil {
			return nil, err
		}
		if db, err = relational.Open(dir, dopts); err != nil {
			return nil, err
		}
	}
	s, err := initStore(db, doc, opts)
	if err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

type storeStateKind int

const (
	stateFresh storeStateKind = iota
	statePartial
	stateReady
)

// storeState classifies a recovered directory: ready (complete metadata),
// fresh (nothing at all), or partial (an initialization that never reached
// its final metadata write).
func storeState(db *relational.DB) storeStateKind {
	names := db.TableNames()
	if len(names) == 0 {
		return stateFresh
	}
	if !slices.Contains(names, metaTable) {
		return statePartial
	}
	rows, err := db.Query(fmt.Sprintf("SELECT v FROM %s WHERE k = 'nextid'", metaTable))
	if err != nil || len(rows.Data) != 1 {
		return statePartial
	}
	return stateReady
}

func initStore(db *relational.DB, doc *xmltree.Document, opts Options) (*Store, error) {
	if doc == nil {
		return nil, fmt.Errorf("engine: directory holds no store; OpenDir needs a document to initialize one")
	}
	if doc.DTD == nil {
		return nil, fmt.Errorf("engine: document has no DTD; Shared Inlining requires one")
	}
	m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{OrderColumn: opts.OrderColumn})
	if err != nil {
		return nil, err
	}
	// The document load (and the ASR build in setup) each end with a
	// checkpoint, so the rows are on pages before the metadata's commits
	// reach the log.
	ds, err := shred.Load(db, m, doc)
	if err != nil {
		return nil, err
	}
	s := &Store{DB: db, M: m, Opt: opts, nextID: ds.MaxID + 1, persistent: true}
	if err := s.setup(); err != nil {
		return nil, err
	}
	if err := s.writeMeta(doc.DTD); err != nil {
		return nil, err
	}
	return s, nil
}

// writeMeta records the store's provenance through SQL (and therefore
// through the log). The 'nextid' row is deliberately last: its presence is
// the initialization-complete marker storeState checks, so a crash at any
// earlier point classifies the directory as partial.
func (s *Store) writeMeta(dtd *xmltree.DTD) error {
	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (k VARCHAR(32), v VARCHAR(65535))", metaTable),
		metaInsert("dtd", xmltree.SerializeDTD(dtd)),
		metaInsert("root", s.M.Root),
		metaInsert("ordercol", boolMeta(s.Opt.OrderColumn)),
		metaInsert("delete", strconv.Itoa(int(s.Opt.Delete))),
		metaInsert("insert", strconv.Itoa(int(s.Opt.Insert))),
		metaInsert("nextid", strconv.FormatInt(s.nextID, 10)),
	}
	for _, sql := range stmts {
		if _, err := s.DB.Exec(sql); err != nil {
			return err
		}
	}
	return nil
}

func metaInsert(k, v string) string {
	return fmt.Sprintf("INSERT INTO %s VALUES (%s, %s)",
		metaTable, relational.FormatValue(relational.Text(k)), relational.FormatValue(relational.Text(v)))
}

func boolMeta(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// reopen rebuilds a Store over an already-recovered database. When the
// caller supplied a document anyway, its provenance must match the stored
// one: silently reopening v1 data under a v2 document would have the user
// updating the wrong store. (Matching provenance with different element
// content is fine — the store's data is the updated truth, the document a
// stale seed.)
func reopen(db *relational.DB, doc *xmltree.Document) (*Store, error) {
	rows, err := db.Query(fmt.Sprintf("SELECT k, v FROM %s", metaTable))
	if err != nil {
		return nil, err
	}
	meta := make(map[string]string, len(rows.Data))
	for _, r := range rows.Data {
		k, _ := r[0].Text()
		v, _ := r[1].Text()
		meta[k] = v
	}
	for _, key := range []string{"dtd", "root", "nextid"} {
		if meta[key] == "" {
			return nil, fmt.Errorf("engine: store metadata is missing %q; the directory is not a complete store", key)
		}
	}
	dtd, err := xmltree.ParseDTD(meta["dtd"])
	if err != nil {
		return nil, fmt.Errorf("engine: stored DTD: %w", err)
	}
	if doc != nil {
		if doc.Root == nil || doc.Root.Name != meta["root"] {
			return nil, fmt.Errorf("engine: store was initialized from a %q document; the given document roots at %q (use a fresh directory for a different document)",
				meta["root"], rootName(doc))
		}
		// SerializeDTD is a parse→serialize fixed point, so equal schemas
		// serialize identically.
		if doc.DTD == nil || xmltree.SerializeDTD(doc.DTD) != meta["dtd"] {
			return nil, fmt.Errorf("engine: the given document's DTD differs from the one this store was initialized with (use a fresh directory for a new schema)")
		}
	}
	opts := Options{OrderColumn: meta["ordercol"] == "1"}
	if n, err := strconv.Atoi(meta["delete"]); err == nil {
		opts.Delete = DeleteMethod(n)
	}
	if n, err := strconv.Atoi(meta["insert"]); err == nil {
		opts.Insert = InsertMethod(n)
	}
	m, err := shred.BuildMapping(dtd, meta["root"], shred.Options{OrderColumn: opts.OrderColumn})
	if err != nil {
		return nil, err
	}
	nextID, err := strconv.ParseInt(meta["nextid"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("engine: stored nextid %q: %w", meta["nextid"], err)
	}
	s := &Store{DB: db, M: m, Opt: opts, nextID: nextID, persistent: true}
	// Triggers were recovered with the schema; the ASR table was recovered
	// with the data. Only the in-memory ASR structure needs rebuilding.
	if opts.Delete == ASRDelete || opts.Insert == ASRInsert {
		a, err := asr.Attach(m)
		if err != nil {
			return nil, err
		}
		s.ASR = a
	}
	return s, nil
}

func rootName(doc *xmltree.Document) string {
	if doc.Root == nil {
		return ""
	}
	return doc.Root.Name
}

// Close flushes the store's log to stable storage and releases it. For
// in-memory stores it is a no-op.
func (s *Store) Close() error { return s.DB.Close() }

// Checkpoint writes the store's dirty pages into its directory and
// truncates superseded log segments. Only valid for persistent stores.
func (s *Store) Checkpoint() error { return s.DB.Checkpoint() }
