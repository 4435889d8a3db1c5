// Package engine assembles the paper's contribution over the relational
// substrate: an XML store backed by Shared Inlining tables, the four
// subtree-delete strategies and three subtree-insert strategies of §6, and a
// translator executing XQuery update statements at the SQL level with the
// §6.3 bind-first multilevel algorithm.
package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/asr"
	"repro/internal/outerunion"
	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

// DeleteMethod selects the §6.1 strategy for complex (multi-table) deletes.
type DeleteMethod int

// Delete strategies.
const (
	// PerTupleTrigger installs AFTER DELETE … FOR EACH ROW triggers that
	// delete child tuples by parentId index lookup (§6.1.1).
	PerTupleTrigger DeleteMethod = iota
	// PerStatementTrigger installs AFTER DELETE … FOR EACH STATEMENT
	// triggers that purge orphans via NOT IN scans (§6.1.1).
	PerStatementTrigger
	// CascadingDelete issues the orphan-purging statements from the
	// application, simulating per-statement triggers without DBMS support
	// (§6.1.2).
	CascadingDelete
	// ASRDelete uses the access support relation's marking scheme (§6.1.3).
	ASRDelete
)

func (m DeleteMethod) String() string {
	switch m {
	case PerTupleTrigger:
		return "per-tuple trigger"
	case PerStatementTrigger:
		return "per-stm trigger"
	case CascadingDelete:
		return "cascade"
	case ASRDelete:
		return "asr"
	default:
		return fmt.Sprintf("DeleteMethod(%d)", int(m))
	}
}

// InsertMethod selects the §6.2 strategy for complex (multi-table) inserts.
type InsertMethod int

// Insert strategies.
const (
	// TupleInsert reads the source via Sorted Outer Union one tuple at a
	// time, remapping ids through an in-memory table, and issues one SQL
	// INSERT per tuple (§6.2.1). Ids are allocated without gaps.
	TupleInsert InsertMethod = iota
	// TableInsert stages the source rows in temporary tables, remaps ids
	// with a single arithmetic offset, and issues one INSERT…SELECT per
	// data relation (§6.2.2).
	TableInsert
	// ASRInsert finds the source subtree through the ASR's marking scheme
	// and replicates tuples with INSERT…SELECT…+offset per relation,
	// avoiding both the temporary table and the Outer Union (§6.2.3).
	ASRInsert
)

func (m InsertMethod) String() string {
	switch m {
	case TupleInsert:
		return "tuple"
	case TableInsert:
		return "table"
	case ASRInsert:
		return "asr"
	default:
		return fmt.Sprintf("InsertMethod(%d)", int(m))
	}
}

// Options configures a Store.
type Options struct {
	Delete DeleteMethod
	Insert InsertMethod
	// OrderColumn stores tuple positions (the §8 order-preserving
	// extension).
	OrderColumn bool
}

// Store is an XML repository over the relational engine.
type Store struct {
	DB  *relational.DB
	M   *shred.Mapping
	ASR *asr.ASR
	Opt Options

	// nextID is the systemwide "next available id" counter of §6.2.2.
	nextID int64

	// sess, when non-nil, is the transaction wrapping the current update's
	// execution phase (see atomically); sql() routes statements through it.
	// A Store supports one concurrent updater; readers (QuerySubtrees,
	// Reconstruct) are unlimited and run under the DB's shared lock.
	sess relational.Session

	// persistent marks a store opened from a directory (OpenDir): updates
	// that allocate tuple ids persist the advanced counter into the
	// metadata table inside the same transaction, so gapless allocation
	// survives restarts exactly as it survives rollbacks.
	persistent bool

	// indexed holds the "table.column" keys (lower case) whose value index
	// a translated equality has claimed (valueIndex). A sync.Map, because
	// readers translate statements concurrently with the updater and each
	// key is written once, then only read.
	indexed sync.Map

	// plans caches each table element's outer-union plan (element →
	// *outerunion.Plan), built the first time a read or tuple insert
	// needs it; readers build concurrently with the updater.
	plans sync.Map
}

// plan returns the outer-union plan for the subtree rooted at elem.
func (s *Store) plan(elem string) (*outerunion.Plan, error) {
	if p, ok := s.plans.Load(elem); ok {
		return p.(*outerunion.Plan), nil
	}
	p, err := outerunion.BuildPlan(s.M, elem)
	if err != nil {
		return nil, err
	}
	s.plans.Store(elem, p)
	return p, nil
}

// sql returns the session statements execute against: the transaction
// wrapping the current execution phase, or the DB in autocommit mode.
func (s *Store) sql() relational.Session {
	if s.sess != nil {
		return s.sess
	}
	return s.DB
}

// atomically runs fn inside one relational transaction unless one is
// already open, rolling back every statement's effects — and the
// next-available-id counter — when fn fails. This is what makes a §6.3
// multi-sub-operation update (and each multi-statement strategy: cascades,
// staged table inserts, ASR maintenance) all-or-nothing: sub-operation k
// failing no longer strands sub-operations 1..k-1's effects.
func (s *Store) atomically(fn func() error) error {
	if s.sess != nil {
		return fn()
	}
	tx := s.DB.Begin()
	s.sess = tx
	savedNext := s.nextID
	committed := false
	// Cleanup runs deferred so a panic inside fn still rolls back and
	// releases the writer lock — otherwise a recovered panic would leave
	// the whole store deadlocked behind a held transaction.
	defer func() {
		s.sess = nil
		if !committed {
			s.nextID = savedNext
			tx.Rollback()
		}
	}()
	if err := fn(); err != nil {
		return err
	}
	if s.persistent && s.nextID != savedNext {
		// Persist the advanced id counter inside the same transaction: the
		// commit record carries it, so recovery replays allocation exactly,
		// and a rollback discards it with everything else.
		if _, err := tx.Exec("UPDATE "+metaTable+" SET v = ? WHERE k = 'nextid'", relational.Text(strconv.FormatInt(s.nextID, 10))); err != nil {
			return err
		}
	}
	committed = true
	return tx.Commit()
}

// Open shreds the document into a fresh database under the DTD's Shared
// Inlining mapping and prepares the configured update strategies (trigger
// creation, ASR construction).
func Open(doc *xmltree.Document, opts Options) (*Store, error) {
	if doc.DTD == nil {
		return nil, fmt.Errorf("engine: document has no DTD; Shared Inlining requires one")
	}
	m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{OrderColumn: opts.OrderColumn})
	if err != nil {
		return nil, err
	}
	db := relational.NewDB()
	ds, err := shred.Load(db, m, doc)
	if err != nil {
		return nil, err
	}
	s := &Store{DB: db, M: m, Opt: opts, nextID: ds.MaxID + 1}
	if err := s.setup(); err != nil {
		return nil, err
	}
	return s, nil
}

// setup installs triggers and builds the ASR according to the options.
func (s *Store) setup() error {
	switch s.Opt.Delete {
	case PerTupleTrigger:
		for _, elem := range s.M.TableOrder {
			tm := s.M.Table(elem)
			for _, childElem := range tm.ChildTables {
				child := s.M.Table(childElem)
				sql := fmt.Sprintf(
					"CREATE TRIGGER tr_row_%s_%s AFTER DELETE ON %s FOR EACH ROW DELETE FROM %s WHERE parentId = OLD.id",
					tm.Name, child.Name, tm.Name, child.Name)
				if _, err := s.sql().Exec(sql); err != nil {
					return err
				}
			}
		}
	case PerStatementTrigger:
		for _, elem := range s.M.TableOrder {
			tm := s.M.Table(elem)
			for _, childElem := range tm.ChildTables {
				child := s.M.Table(childElem)
				sql := fmt.Sprintf(
					"CREATE TRIGGER tr_stm_%s_%s AFTER DELETE ON %s FOR EACH STATEMENT DELETE FROM %s WHERE parentId NOT IN (SELECT id FROM %s)",
					tm.Name, child.Name, tm.Name, child.Name, tm.Name)
				if _, err := s.sql().Exec(sql); err != nil {
					return err
				}
			}
		}
	}
	if s.Opt.Delete == ASRDelete || s.Opt.Insert == ASRInsert {
		a, err := asr.Build(s.DB, s.M)
		if err != nil {
			return err
		}
		s.ASR = a
	}
	return nil
}

// Snapshot captures the store's state for fast reset of a memory store
// between benchmark iterations.
type Snapshot struct {
	db     *relational.DBSnapshot
	nextID int64
}

// Snapshot captures table contents and the id counter.
func (s *Store) Snapshot() *Snapshot {
	return &Snapshot{db: s.DB.Snapshot(), nextID: s.nextID}
}

// Restore resets a memory store to a snapshot. A store opened on a
// directory, or one with a transaction open, refuses and is left as is.
func (s *Store) Restore(snap *Snapshot) error {
	err := s.DB.Restore(snap.db)
	if err == nil {
		s.nextID = snap.nextID
	}
	return err
}

// AllocateIDs reserves n consecutive tuple ids and returns the first.
func (s *Store) AllocateIDs(n int64) int64 {
	first := s.nextID
	s.nextID += n
	return first
}

// NextID returns the systemwide next-available-id counter.
func (s *Store) NextID() int64 { return s.nextID }

// TupleCount sums rows across data tables (excluding the ASR) with
// DB.RowCount, which counts under the DB's shared lock and is safe against
// a concurrent writer. Like SELECT COUNT(*) on the DB, it counts committed
// rows: an open transaction's inserts and deletes show only once it
// commits.
func (s *Store) TupleCount() int {
	n := 0
	for _, elem := range s.M.TableOrder {
		n += s.DB.RowCount(s.M.Table(elem).Name)
	}
	return n
}

// dataColumnList returns the comma-separated data column names of a table
// (everything after id and parentId).
func dataColumnList(tm *shred.TableMap, withOrder bool) string {
	var cols []string
	if withOrder {
		cols = append(cols, "pos")
	}
	for _, c := range tm.Columns {
		cols = append(cols, c.Name)
	}
	return strings.Join(cols, ", ")
}
