package main

import (
	"fmt"
	"math/rand"

	"repro/internal/xmltree"
)

// opKind classifies an op for the latency metrics: updates and reads each
// have their own percentiles, checkpoints count only toward ops_per_s.
type opKind int

const (
	opUpdate opKind = iota
	opRead
	opCheckpoint
	numKinds
)

var kindNames = [numKinds]string{"update", "read", "checkpoint"}

// op is one generated operation plus what a correct result looks like. The
// store under test sees only text (a statement or a query); an op with no
// text is a full Reconstruct (read), a strategy cycle (update, bulk workload)
// or a checkpoint.
type op struct {
	kind opKind
	text string
	// want describes the expected read result, captured from the model when
	// the op was generated (the model moves on with later ops).
	want expect
	// probeElem plus probeAttr or probeChild (an inlined child element) and
	// probeVal name the same read as an outer-union target and condition, for
	// the traced run's BuildPlan→SQL→Query→Reconstruct split. Empty when the
	// op has none.
	probeElem, probeAttr, probeChild, probeVal string
}

// expect is the model's view of a read target.
type expect struct {
	key, name, title, year string
	authors, citations     int
	count                  int // publications of a conference; top-level children of a document
}

// pub is the model of one live publication.
type pub struct {
	key, title, year   string
	conf               int
	authors, citations int
}

// dblpModel mirrors the DBLP document's update-relevant state so the
// generator only emits ops that succeed (an existing key, an absent
// attribute) and knows the answer to every read it emits.
type dblpModel struct {
	rng      *rand.Rand
	confs    []string
	confPubs []int
	pubs     []*pub
	newKeys  int
}

const (
	docURI = `document("dblp.xml")`
	// maxAuthors bounds author inserts per publication so point reads do
	// not get slower the longer a run lasts.
	maxAuthors = 8
)

func newDBLPModel(doc *xmltree.Document, seed int64) *dblpModel {
	m := &dblpModel{rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	for ci, conf := range doc.Root.ChildElementsNamed("conference") {
		m.confs = append(m.confs, conf.FirstChildNamed("name").TextContent())
		ps := conf.ChildElementsNamed("publication")
		m.confPubs = append(m.confPubs, len(ps))
		for _, e := range ps {
			p := &pub{conf: ci, title: e.FirstChildNamed("title").TextContent()}
			p.key, _ = e.AttrValue("key")
			p.year, _ = e.AttrValue("year")
			p.authors = len(e.ChildElementsNamed("author"))
			p.citations = len(e.ChildElementsNamed("citation"))
			m.pubs = append(m.pubs, p)
		}
	}
	return m
}

const alnum = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

func (m *dblpModel) randString(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[m.rng.Intn(len(alnum))]
	}
	return string(b)
}

func (m *dblpModel) pick() *pub { return m.pubs[m.rng.Intn(len(m.pubs))] }

func pubPath(key string) string {
	return docURI + `/dblp/conference/publication[@key="` + key + `"]`
}

// insertPub: a 5-element publication (title, pages, three authors) under a
// conference chosen by name. New publications carry no citation, so they are
// later candidates for insertAuthor.
func (m *dblpModel) insertPub() op {
	ci := m.rng.Intn(len(m.confs))
	m.newKeys++
	p := &pub{
		key:     fmt.Sprintf("new/%d", m.newKeys),
		title:   m.randString(40),
		year:    fmt.Sprint(1990 + m.rng.Intn(12)),
		conf:    ci,
		authors: 3,
	}
	lo := 1 + m.rng.Intn(400)
	text := fmt.Sprintf(`FOR $c IN %s/dblp/conference[name="%s"] UPDATE $c { INSERT <publication key="%s" year="%s"><title>%s</title><pages>%d-%d</pages><author>Author %s</author><author>Author %s</author><author>Author %s</author></publication> }`,
		docURI, m.confs[ci], p.key, p.year, p.title, lo, lo+m.rng.Intn(20),
		m.randString(8), m.randString(8), m.randString(8))
	m.pubs = append(m.pubs, p)
	m.confPubs[ci]++
	return op{kind: opUpdate, text: text}
}

func (m *dblpModel) replaceTitle() op {
	p := m.pick()
	p.title = m.randString(40)
	return op{kind: opUpdate, text: fmt.Sprintf(
		`FOR $p IN %s, $t IN $p/title UPDATE $p { REPLACE $t WITH <title>%s</title> }`, pubPath(p.key), p.title)}
}

// insertAuthor appends an author to a publication without citations:
// Store.Reconstruct emits child tables in schema order (authors, then
// citations) while the DOM appends at the end, so only there do the two agree
// byte for byte. Falls back to replaceTitle when probing finds no candidate.
func (m *dblpModel) insertAuthor() op {
	for try := 0; try < 32; try++ {
		p := m.pick()
		if p.citations == 0 && p.authors < maxAuthors {
			p.authors++
			return op{kind: opUpdate, text: fmt.Sprintf(
				`FOR $p IN %s UPDATE $p { INSERT <author>Author %s</author> }`, pubPath(p.key), m.randString(8))}
		}
	}
	return m.replaceTitle()
}

func (m *dblpModel) deletePub() op {
	i := m.rng.Intn(len(m.pubs))
	p := m.pubs[i]
	m.pubs[i] = m.pubs[len(m.pubs)-1]
	m.pubs = m.pubs[:len(m.pubs)-1]
	m.confPubs[p.conf]--
	return op{kind: opUpdate, text: fmt.Sprintf(
		`FOR $c IN %s/dblp/conference[name="%s"], $p IN $c/publication[@key="%s"] UPDATE $c { DELETE $p }`,
		docURI, m.confs[p.conf], p.key)}
}

// toggleYear deletes the year attribute where present and inserts it where
// absent, so neither statement can fail.
func (m *dblpModel) toggleYear() op {
	p := m.pick()
	if p.year != "" {
		p.year = ""
		return op{kind: opUpdate, text: fmt.Sprintf(
			`FOR $p IN %s, $y IN $p/@year UPDATE $p { DELETE $y }`, pubPath(p.key))}
	}
	p.year = fmt.Sprint(1990 + m.rng.Intn(12))
	return op{kind: opUpdate, text: fmt.Sprintf(
		`FOR $p IN %s UPDATE $p { INSERT new_attribute(year, "%s") }`, pubPath(p.key), p.year)}
}

func (m *dblpModel) readPub() op {
	p := m.pick()
	return op{kind: opRead, text: fmt.Sprintf(`FOR $p IN %s RETURN $p`, pubPath(p.key)),
		want:      expect{key: p.key, title: p.title, year: p.year, authors: p.authors, citations: p.citations},
		probeElem: "publication", probeAttr: "key", probeVal: p.key}
}

func (m *dblpModel) readConf() op {
	ci := m.rng.Intn(len(m.confs))
	return op{kind: opRead, text: fmt.Sprintf(`FOR $c IN %s/dblp/conference[name="%s"] RETURN $c`, docURI, m.confs[ci]),
		want:      expect{name: m.confs[ci], count: m.confPubs[ci]},
		probeElem: "conference", probeChild: "name", probeVal: m.confs[ci]}
}

// pointMix is the op stream of stmt_point_mem and durable_mix_paged: 75%
// update statements, 25% point reads; publication inserts and deletes balance
// so the document keeps its size however long the run lasts.
func (m *dblpModel) pointMix() op {
	switch r := m.rng.Intn(100); {
	case r < 15:
		return m.insertPub()
	case r < 35:
		return m.replaceTitle()
	case r < 50:
		return m.insertAuthor()
	case r < 65:
		return m.deletePub()
	case r < 75:
		return m.toggleYear()
	case r < 90:
		return m.readPub()
	default:
		return m.readConf()
	}
}

// scanMix is the op stream of scan_paged_cold, in rounds of eight: four
// subtree reads and three small updates alternating, then one full scan. One
// read in five is a scan, so read_p50 sits inside the subtree reads and
// read_p90 inside the scans, neither on the boundary between the two.
func (m *dblpModel) scanMix(i int) op {
	switch {
	case i%8 == 7:
		return op{kind: opRead, want: expect{count: len(m.confs)}}
	case i%2 == 0:
		return m.readConf()
	case m.rng.Intn(2) == 0:
		return m.replaceTitle()
	default:
		return m.insertAuthor()
	}
}

// check compares a reconstructed document with the model: every live
// publication under its conference with the model's title, year and child
// counts, and nothing else.
func (m *dblpModel) check(doc *xmltree.Document) error {
	byKey := make(map[string]*pub, len(m.pubs))
	for _, p := range m.pubs {
		byKey[p.key] = p
	}
	confs := doc.Root.ChildElementsNamed("conference")
	if len(confs) != len(m.confs) {
		return fmt.Errorf("document has %d conferences, model %d", len(confs), len(m.confs))
	}
	seen := 0
	for ci, conf := range confs {
		for _, e := range conf.ChildElementsNamed("publication") {
			key, _ := e.AttrValue("key")
			p := byKey[key]
			if p == nil || p.conf != ci {
				return fmt.Errorf("publication %q under conference %d is not in the model", key, ci)
			}
			if err := checkPub(e, expect{key: p.key, title: p.title, year: p.year, authors: p.authors, citations: p.citations}); err != nil {
				return err
			}
			seen++
		}
	}
	if seen != len(m.pubs) {
		return fmt.Errorf("document has %d publications, model %d", seen, len(m.pubs))
	}
	return nil
}

func checkPub(e *xmltree.Element, w expect) error {
	key, _ := e.AttrValue("key")
	year, _ := e.AttrValue("year")
	var title string
	if t := e.FirstChildNamed("title"); t != nil {
		title = t.TextContent()
	}
	a, c := len(e.ChildElementsNamed("author")), len(e.ChildElementsNamed("citation"))
	if key != w.key || year != w.year || title != w.title || a != w.authors || c != w.citations {
		return fmt.Errorf("publication %q: got year=%q title=%q authors=%d citations=%d, want year=%q title=%q authors=%d citations=%d",
			key, year, title, a, c, w.year, w.title, w.authors, w.citations)
	}
	return nil
}
