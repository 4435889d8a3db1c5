package repro

// End-to-end tests for the relational layer's Volcano pipeline over shredded
// documents: hash join and index nested-loop join must agree with a
// reference nested-loop join computed outside SQL, on randomized datagen
// tables.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/outerunion"
	"repro/internal/relational"
	"repro/internal/shred"
)

// joinReference computes parent-child (P.id, C.id) pairs by brute-force
// nested loops in Go over each table's rows, read by single-table SELECTs
// so the reference stays independent of the join planner.
func joinReference(t *testing.T, db *relational.DB, ptab, ctab string) []string {
	t.Helper()
	parents, err := db.Query("SELECT id FROM " + ptab)
	if err != nil {
		t.Fatal(err)
	}
	children, err := db.Query("SELECT id, parentId FROM " + ctab)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range parents.Data {
		for _, c := range children.Data {
			if !c[1].IsNull() && p[0] == c[1] {
				out = append(out, fmt.Sprintf("%v|%v", p[0], c[0]))
			}
		}
	}
	sort.Strings(out)
	return out
}

func joinViaSQL(t *testing.T, db *relational.DB, ptab, ctab string) []string {
	t.Helper()
	rows, err := db.Query(fmt.Sprintf(
		"SELECT P.id, C.id FROM %s P, %s C WHERE C.parentId = P.id", ptab, ctab))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(rows.Data))
	for _, r := range rows.Data {
		out = append(out, fmt.Sprintf("%v|%v", r[0], r[1]))
	}
	sort.Strings(out)
	return out
}

// TestJoinStrategyEquivalence loads randomized documents and checks that
// the parent-child join returns the identical multiset under index probes
// (as shredded), hash joins (indexes dropped), and a brute-force reference.
func TestJoinStrategyEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 7, 19} {
		doc := datagen.Randomized(datagen.RandomizedParams{
			ScalingFactor: 15, MaxDepth: 4, MaxFanout: 3, Seed: seed,
		})
		m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{})
		if err != nil {
			t.Fatal(err)
		}
		db := relational.NewDB()
		if _, err := shred.Load(db, m, doc); err != nil {
			t.Fatal(err)
		}
		for _, elem := range m.TableOrder {
			tm := m.Table(elem)
			for _, childElem := range tm.ChildTables {
				ctm := m.Table(childElem)
				want := joinReference(t, db, tm.Name, ctm.Name)

				db.ResetStats()
				indexed := joinViaSQL(t, db, tm.Name, ctm.Name)
				if st := db.Stats(); st.IndexProbes == 0 {
					t.Errorf("seed %d %s⋈%s: indexed join used no probes", seed, tm.Name, ctm.Name)
				}
				if strings.Join(indexed, ",") != strings.Join(want, ",") {
					t.Fatalf("seed %d %s⋈%s: indexed join diverges from reference (%d vs %d rows)",
						seed, tm.Name, ctm.Name, len(indexed), len(want))
				}

				db.MustExec(fmt.Sprintf("DROP INDEX %s (id)", tm.Name))
				db.MustExec(fmt.Sprintf("DROP INDEX %s (parentId)", ctm.Name))
				db.ResetStats()
				hashed := joinViaSQL(t, db, tm.Name, ctm.Name)
				if st := db.Stats(); st.HashJoinBuilds == 0 {
					t.Errorf("seed %d %s⋈%s: unindexed join built no hash table", seed, tm.Name, ctm.Name)
				}
				if strings.Join(hashed, ",") != strings.Join(want, ",") {
					t.Fatalf("seed %d %s⋈%s: hash join diverges from reference (%d vs %d rows)",
						seed, tm.Name, ctm.Name, len(hashed), len(want))
				}
				db.MustExec(fmt.Sprintf("CREATE INDEX idx_%s_id ON %s (id)", tm.Name, tm.Name))
				db.MustExec(fmt.Sprintf("CREATE INDEX idx_%s_parent ON %s (parentId)", ctm.Name, ctm.Name))
			}
		}
	}
}

// TestEngineJoinsUseIndexProbes asserts the acceptance criterion that the
// engine's generated parent-ID joins run as index probes: a Sorted Outer
// Union reconstruction over a shredded document must probe, not scan, its
// child relations.
func TestEngineJoinsUseIndexProbes(t *testing.T) {
	doc := datagen.Fixed(datagen.FixedParams{ScalingFactor: 10, Depth: 4, Fanout: 2, Seed: 5})
	m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := relational.NewDB()
	if _, err := shred.Load(db, m, doc); err != nil {
		t.Fatal(err)
	}
	// The SOU plan for the whole document: every child branch joins
	// T.parentId = Q.(parent id col).
	db.ResetStats()
	rows, err := db.Query(souSQL(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) == 0 {
		t.Fatal("outer union returned nothing")
	}
	st := db.Stats()
	if st.IndexProbes == 0 {
		t.Errorf("SOU child joins should probe the parentId index, stats = %+v", st)
	}
}

func souSQL(t *testing.T, m *shred.Mapping) string {
	t.Helper()
	plan, err := outerunion.BuildPlan(m, "e1")
	if err != nil {
		t.Fatal(err)
	}
	return plan.SQL("")
}
