package datagen

import (
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

func TestFixedStructure(t *testing.T) {
	p := FixedParams{ScalingFactor: 5, Depth: 3, Fanout: 2, Seed: 42}
	doc := Fixed(p)
	if doc.Root.Name != "root" {
		t.Fatalf("root = %s", doc.Root.Name)
	}
	subtrees := doc.Root.ChildElementsNamed("e1")
	if len(subtrees) != 5 {
		t.Fatalf("subtrees = %d", len(subtrees))
	}
	// Each subtree: 1 + 2 + 4 = 7 structural elements.
	if p.ElementsPerSubtree() != 7 {
		t.Errorf("ElementsPerSubtree = %d", p.ElementsPerSubtree())
	}
	count := 0
	xmltree.Walk(subtrees[0], func(e *xmltree.Element) bool {
		if e.Name[0] == 'e' {
			count++
		}
		return true
	})
	if count != 7 {
		t.Errorf("structural elements = %d, want 7", count)
	}
	// Payload: every element has s<i> (50 chars) and k<i> (integer).
	s1 := subtrees[0].FirstChildNamed("s1")
	if s1 == nil || len(s1.TextContent()) != 50 {
		t.Error("payload string wrong")
	}
	if subtrees[0].FirstChildNamed("k1") == nil {
		t.Error("payload integer missing")
	}
}

func TestFixedDeterministic(t *testing.T) {
	p := FixedParams{ScalingFactor: 3, Depth: 2, Fanout: 2, Seed: 7}
	a := Fixed(p).String()
	b := Fixed(p).String()
	if a != b {
		t.Error("same seed produced different documents")
	}
	p2 := p
	p2.Seed = 8
	if Fixed(p2).String() == a {
		t.Error("different seeds produced identical documents")
	}
}

// TestTable1TupleCounts checks the headline sizes from Table 1: the fixed-
// fanout sweep peaks at 6400 structural elements, the fixed-depth sweep at
// 7200.
func TestTable1TupleCounts(t *testing.T) {
	ff := FixedParams{ScalingFactor: 800, Depth: 8, Fanout: 1}
	if got := ff.TotalElements(); got != 6400 {
		t.Errorf("fixed-fanout max = %d, want 6400", got)
	}
	fd := FixedParams{ScalingFactor: 800, Depth: 2, Fanout: 8}
	if got := fd.TotalElements(); got != 7200 {
		t.Errorf("fixed-depth max = %d, want 7200", got)
	}
	if got := len(Table1Grid()); got != 12+16+12 {
		t.Errorf("grid size = %d", got)
	}
}

// TestFixedShredsIntoPerLevelTables confirms the mapping shape the
// experiments depend on: one table per level, payload inlined.
func TestFixedShredsIntoPerLevelTables(t *testing.T) {
	p := FixedParams{ScalingFactor: 4, Depth: 3, Fanout: 2, Seed: 1}
	doc := Fixed(p)
	s, err := engine.Open(doc, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Tables: root, e1, e2, e3.
	if got := len(s.M.TableOrder); got != 4 {
		t.Fatalf("tables = %v", s.M.TableOrder)
	}
	if got := s.TupleCount(); got != 1+p.TotalElements() {
		t.Errorf("tuples = %d, want %d", got, 1+p.TotalElements())
	}
	// Round trip.
	re, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if re.String() != doc.String() {
		t.Error("fixed document round trip mismatch")
	}
}

func TestRandomizedBounds(t *testing.T) {
	p := RandomizedParams{ScalingFactor: 20, MaxDepth: 4, MaxFanout: 3, Seed: 99}
	doc := Randomized(p)
	if got := len(doc.Root.ChildElementsNamed("e1")); got != 20 {
		t.Fatalf("subtrees = %d", got)
	}
	maxDepth := 0
	xmltree.Walk(doc.Root, func(e *xmltree.Element) bool {
		if e.Name[0] == 'e' && e.Depth() > maxDepth {
			maxDepth = e.Depth()
		}
		return true
	})
	if maxDepth > 4 {
		t.Errorf("depth bound exceeded: %d", maxDepth)
	}
	// Randomized docs still shred cleanly.
	if _, err := engine.Open(doc, engine.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRandomizedAlwaysShreddable(t *testing.T) {
	f := func(seed int64, sf, d, fo uint8) bool {
		p := RandomizedParams{
			ScalingFactor: 1 + int(sf)%8,
			MaxDepth:      2 + int(d)%4,
			MaxFanout:     1 + int(fo)%3,
			Seed:          seed,
		}
		doc := Randomized(p)
		m, err := shred.BuildMapping(doc.DTD, doc.Root.Name, shred.Options{})
		if err != nil {
			return false
		}
		_, err = shred.NewShredder(m).Shred(doc)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDBLPShape(t *testing.T) {
	doc := DBLP(DBLPParams{Conferences: 10, PubsPerConf: 20, Seed: 5})
	confs := doc.Root.ChildElementsNamed("conference")
	if len(confs) != 10 {
		t.Fatalf("conferences = %d", len(confs))
	}
	pubs, year2000 := 0, 0
	xmltree.Walk(doc.Root, func(e *xmltree.Element) bool {
		if e.Name == "publication" {
			pubs++
			if y, _ := e.AttrValue("year"); y == "2000" {
				year2000++
			}
			if e.FirstChildNamed("title") == nil {
				t.Error("publication without title")
			}
			if len(e.ChildElementsNamed("author")) == 0 {
				t.Error("publication without authors")
			}
		}
		return true
	})
	if pubs < 100 {
		t.Errorf("publications = %d, implausibly few", pubs)
	}
	// Year 2000 is a small fraction (the paper deletes it as the random
	// workload analogue).
	if year2000 == 0 || year2000 > pubs/3 {
		t.Errorf("year-2000 fraction = %d/%d", year2000, pubs)
	}
	// DBLP maps and loads.
	s, err := engine.Open(doc, engine.Options{Delete: engine.PerTupleTrigger})
	if err != nil {
		t.Fatal(err)
	}
	// Publications are deletable by year through the mapping.
	n, err := s.DeleteSubtrees("publication", "a_year = '2000'")
	if err != nil {
		t.Fatal(err)
	}
	if n != year2000 {
		t.Errorf("deleted %d, want %d", n, year2000)
	}
}

func TestDBLPBushiness(t *testing.T) {
	doc := DBLP(DBLPParams{Conferences: 5, PubsPerConf: 30, Seed: 1})
	// Shallow: max element depth is 3 (conference/publication/author).
	maxDepth := 0
	xmltree.Walk(doc.Root, func(e *xmltree.Element) bool {
		if e.Depth() > maxDepth {
			maxDepth = e.Depth()
		}
		return true
	})
	if maxDepth != 3 {
		t.Errorf("max depth = %d, want 3 (bushy and shallow)", maxDepth)
	}
}
