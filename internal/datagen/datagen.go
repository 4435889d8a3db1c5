// Package datagen generates the paper's test data (§7.1): fixed synthetic
// documents parameterized by scaling factor, depth, and fanout; randomized
// synthetic documents; and a DBLP-like bibliography with the conference →
// publication → author/citation shape of the paper's real-life data set.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/xmltree"
)

// FixedParams are the §7.1.1 document parameters.
type FixedParams struct {
	// ScalingFactor is the number of subtrees at the root level (document
	// length).
	ScalingFactor int
	// Depth is the number of levels in each subtree (document complexity).
	Depth int
	// Fanout is the number of child subelements of internal nodes.
	Fanout int
	// Seed makes the payload deterministic.
	Seed int64
}

// ElementsPerSubtree returns the number of structural elements in one
// subtree: depth levels with fanout^level nodes per level.
func (p FixedParams) ElementsPerSubtree() int {
	if p.Fanout <= 1 {
		return p.Depth
	}
	n := 0
	pow := 1
	for i := 0; i < p.Depth; i++ {
		n += pow
		pow *= p.Fanout
	}
	return n
}

// TotalElements returns the structural element count excluding the root.
func (p FixedParams) TotalElements() int {
	return p.ScalingFactor * p.ElementsPerSubtree()
}

// FixedDTD returns the DTD for fixed synthetic documents of the given depth:
// one element type per level (e1…eD), each with an inlined 50-character
// string subelement and an integer subelement (§7.1.1).
func FixedDTD(depth int) string {
	var b strings.Builder
	b.WriteString("<!ELEMENT root (e1*)>\n")
	for d := 1; d <= depth; d++ {
		if d < depth {
			fmt.Fprintf(&b, "<!ELEMENT e%d (s%d, k%d, e%d*)>\n", d, d, d, d+1)
		} else {
			fmt.Fprintf(&b, "<!ELEMENT e%d (s%d, k%d)>\n", d, d, d)
		}
		fmt.Fprintf(&b, "<!ELEMENT s%d (#PCDATA)>\n<!ELEMENT k%d (#PCDATA)>\n", d, d)
	}
	return b.String()
}

const payloadAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = payloadAlphabet[rng.Intn(len(payloadAlphabet))]
	}
	return string(b)
}

// Fixed generates a fixed synthetic document: ScalingFactor subtrees of
// exactly Depth levels with exactly Fanout children per internal node. Each
// element carries a 50-character string and an integer payload.
func Fixed(p FixedParams) *xmltree.Document {
	rng := rand.New(rand.NewSource(p.Seed))
	dtd := xmltree.MustParseDTD(FixedDTD(p.Depth))
	root := xmltree.NewElement("root")
	var build func(level int) *xmltree.Element
	build = func(level int) *xmltree.Element {
		e := xmltree.NewElement(fmt.Sprintf("e%d", level))
		s := xmltree.NewElement(fmt.Sprintf("s%d", level))
		s.AppendChild(xmltree.NewText(randString(rng, 50)))
		e.AppendChild(s)
		k := xmltree.NewElement(fmt.Sprintf("k%d", level))
		k.AppendChild(xmltree.NewText(fmt.Sprint(rng.Intn(1_000_000))))
		e.AppendChild(k)
		if level < p.Depth {
			for i := 0; i < p.Fanout; i++ {
				e.AppendChild(build(level + 1))
			}
		}
		return e
	}
	for i := 0; i < p.ScalingFactor; i++ {
		root.AppendChild(build(1))
	}
	doc := xmltree.NewDocument(root)
	doc.DTD = dtd
	return doc
}

// RandomizedParams are the §7.1.2 parameters: depth and fanout become upper
// bounds.
type RandomizedParams struct {
	ScalingFactor int
	// MaxDepth bounds each subtree's depth; the actual depth is uniform in
	// [2, MaxDepth].
	MaxDepth int
	// MaxFanout bounds each node's fanout; the actual fanout is uniform in
	// [1, MaxFanout].
	MaxFanout int
	Seed      int64
}

// Randomized generates a randomized synthetic document per §7.1.2.
func Randomized(p RandomizedParams) *xmltree.Document {
	if p.MaxDepth < 2 {
		p.MaxDepth = 2
	}
	if p.MaxFanout < 1 {
		p.MaxFanout = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	dtd := xmltree.MustParseDTD(FixedDTD(p.MaxDepth))
	root := xmltree.NewElement("root")
	var build func(level, maxLevel int) *xmltree.Element
	build = func(level, maxLevel int) *xmltree.Element {
		e := xmltree.NewElement(fmt.Sprintf("e%d", level))
		s := xmltree.NewElement(fmt.Sprintf("s%d", level))
		s.AppendChild(xmltree.NewText(randString(rng, 50)))
		e.AppendChild(s)
		k := xmltree.NewElement(fmt.Sprintf("k%d", level))
		k.AppendChild(xmltree.NewText(fmt.Sprint(rng.Intn(1_000_000))))
		e.AppendChild(k)
		if level < maxLevel {
			fanout := 1 + rng.Intn(p.MaxFanout)
			for i := 0; i < fanout; i++ {
				e.AppendChild(build(level+1, maxLevel))
			}
		}
		return e
	}
	for i := 0; i < p.ScalingFactor; i++ {
		depth := 2 + rng.Intn(p.MaxDepth-1)
		root.AppendChild(build(1, depth))
	}
	doc := xmltree.NewDocument(root)
	doc.DTD = dtd
	return doc
}

// DBLPParams sizes the DBLP-like bibliography (§7.1.3). The paper's document
// held the conference publications of the DBLP bibliography (40 MB, >400k
// tuples); the defaults here reproduce its shape — very bushy and shallow —
// at a size that fits the test budget, with Scale to grow it.
type DBLPParams struct {
	Conferences int
	// PubsPerConf is the mean number of publications per conference.
	PubsPerConf int
	// YearFrom/YearTo spread publication years; the delete experiment
	// removes year-2000 publications, a small fraction of the document.
	YearFrom, YearTo int
	Seed             int64
}

// DBLPDTD declares the bibliography.
const DBLPDTD = `
<!ELEMENT dblp (conference*)>
<!ELEMENT conference (name, publication*)>
<!ELEMENT publication (title, pages?, author*, citation*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT pages (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT citation (#PCDATA)>
<!ATTLIST publication year CDATA #IMPLIED key CDATA #IMPLIED>
`

// DBLP generates the bibliography document.
func DBLP(p DBLPParams) *xmltree.Document {
	if p.YearFrom == 0 {
		p.YearFrom = 1990
	}
	if p.YearTo == 0 {
		p.YearTo = 2001
	}
	rng := rand.New(rand.NewSource(p.Seed))
	dtd := xmltree.MustParseDTD(DBLPDTD)
	root := xmltree.NewElement("dblp")
	for c := 0; c < p.Conferences; c++ {
		conf := xmltree.NewElement("conference")
		nm := xmltree.NewElement("name")
		nm.AppendChild(xmltree.NewText(fmt.Sprintf("Conf-%03d", c)))
		conf.AppendChild(nm)
		// Bushy: publication counts vary around the mean.
		pubs := p.PubsPerConf/2 + rng.Intn(p.PubsPerConf+1)
		for i := 0; i < pubs; i++ {
			pub := xmltree.NewElement("publication")
			year := p.YearFrom + rng.Intn(p.YearTo-p.YearFrom+1)
			pub.ReplaceAttrValue("year", fmt.Sprint(year))
			pub.ReplaceAttrValue("key", fmt.Sprintf("conf/%03d/%d-%d", c, year, i))
			ti := xmltree.NewElement("title")
			ti.AppendChild(xmltree.NewText(randString(rng, 40)))
			pub.AppendChild(ti)
			if rng.Intn(2) == 0 {
				pg := xmltree.NewElement("pages")
				lo := 1 + rng.Intn(400)
				pg.AppendChild(xmltree.NewText(fmt.Sprintf("%d-%d", lo, lo+rng.Intn(20))))
				pub.AppendChild(pg)
			}
			authors := 1 + rng.Intn(4)
			for a := 0; a < authors; a++ {
				au := xmltree.NewElement("author")
				au.AppendChild(xmltree.NewText("Author " + randString(rng, 8)))
				pub.AppendChild(au)
			}
			cites := rng.Intn(8)
			for ct := 0; ct < cites; ct++ {
				ci := xmltree.NewElement("citation")
				ci.AppendChild(xmltree.NewText(fmt.Sprintf("ref-%d", rng.Intn(100000))))
				pub.AppendChild(ci)
			}
			conf.AppendChild(pub)
		}
		root.AppendChild(conf)
	}
	doc := xmltree.NewDocument(root)
	doc.DTD = dtd
	return doc
}

// Table1Grid returns the three §7.1.1 parameter sweeps exactly as Table 1
// specifies them: fixed fanout (f=1, d∈{2,4,8}, sf∈{100..800}), fixed depth
// (d=2, f∈{1,2,4,8}, sf∈{100..800}), and fixed scaling factor (sf=100,
// d∈{2..5}, f∈{2,4,8}).
func Table1Grid() []FixedParams {
	var out []FixedParams
	for _, d := range []int{2, 4, 8} {
		for _, sf := range []int{100, 200, 400, 800} {
			out = append(out, FixedParams{ScalingFactor: sf, Depth: d, Fanout: 1, Seed: 1})
		}
	}
	for _, f := range []int{1, 2, 4, 8} {
		for _, sf := range []int{100, 200, 400, 800} {
			out = append(out, FixedParams{ScalingFactor: sf, Depth: 2, Fanout: f, Seed: 1})
		}
	}
	for _, d := range []int{2, 3, 4, 5} {
		for _, f := range []int{2, 4, 8} {
			out = append(out, FixedParams{ScalingFactor: 100, Depth: d, Fanout: f, Seed: 1})
		}
	}
	return out
}
