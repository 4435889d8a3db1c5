package engine

// The paper's evaluation (§7) as exact-count laws. Each figure plots wall
// time against scaling factor or depth, but what it claims is how a
// strategy's cost grows with the document: the statements it issues, the
// triggers it fires, the rows it reads. These tests run the figures'
// operations at small sweep points and assert that growth on Stats counts,
// which machine load cannot move. A law with a closed form is asserted
// exactly; linear growth is asserted as the ratio between sweep points,
// within ±5%. Run
//
//	go test -v -run 'TestFig|TestTable2|TestCascade|TestRandomized' ./internal/engine
//
// to print every figure's series in counts.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// figInput is one row of the law table: a document and the element whose
// subtrees the workloads delete or copy. where is the bulk statement's
// condition; "" selects every subtree.
type figInput struct {
	label string
	doc   *xmltree.Document
	elem  string
	where string
}

func fixedInput(label string, p datagen.FixedParams) figInput {
	return figInput{label: label, doc: datagen.Fixed(p), elem: "e1"}
}

// sfSweep is the Figure 6/7 axis: scaling factor at depth 4, fanout 1.
func sfSweep() []figInput {
	var out []figInput
	for _, sf := range []int{25, 50, 100} {
		out = append(out, fixedInput(fmt.Sprintf("sf=%d", sf),
			datagen.FixedParams{ScalingFactor: sf, Depth: 4, Fanout: 1, Seed: 1}))
	}
	return out
}

// depthSweep is the Figure 8–11 axis: depth at scaling factor 20, fanout 4.
func depthSweep() []figInput {
	var out []figInput
	for d := 2; d <= 5; d++ {
		out = append(out, fixedInput(fmt.Sprintf("d=%d", d),
			datagen.FixedParams{ScalingFactor: 20, Depth: d, Fanout: 4, Seed: 1}))
	}
	return out
}

// custInput is the Figure 4 customer database. Its bulk statement names
// both Johns: one with orders and order lines, one with neither.
func custInput(t testing.TB) figInput {
	return figInput{label: "custdb", doc: custDoc(t), elem: "Customer", where: "Name_v = 'John'"}
}

// A workload is one of the §7.1 operations. The bulk form names every
// selected subtree in one client statement; the random form names 10
// subtrees at an even stride through the root table, one statement each.
type workload struct {
	name   string
	random bool
	insert bool // copy the subtrees instead of deleting them
}

var (
	bulkDelete   = workload{name: "bulk delete"}
	randomDelete = workload{name: "random delete", random: true}
	bulkInsert   = workload{name: "bulk insert", insert: true}
	randomInsert = workload{name: "random insert", random: true, insert: true}
)

// method names the strategy opts selects for the workload.
func (w workload) method(opts Options) string {
	if w.insert {
		return opts.Insert.String()
	}
	return opts.Delete.String()
}

// figRun is one measured workload: the Stats delta of its client
// statements and the shape of what they touched.
type figRun struct {
	st relational.Stats
	// clients is the client statements issued and roots the subtree roots
	// they named; parents sums, per statement, the distinct parents of
	// those roots. scanned is the rows the statements read to find their
	// roots: the whole root table in bulk, one id probe per random root.
	clients, roots, parents, scanned int
	m                                *shred.Mapping
	elem                             string
	// before and after are the rows of every data table around the run.
	before, after map[string]int
}

// tables is the number of tables in the subtree (k in the laws).
func (r figRun) tables() int { return len(r.m.Descendants(r.elem)) }

// level is the subtree root's depth below the document root.
func (r figRun) level() int { return len(r.m.ParentChain(r.elem)) - 1 }

// tuples is the document's size before the run.
func (r figRun) tuples() int {
	n := 0
	for _, c := range r.before {
		n += c
	}
	return n
}

// changed is the number of tuples the run deleted or copied.
func (r figRun) changed() int {
	n := 0
	for e, c := range r.before {
		d := r.after[e] - c
		n += max(d, -d)
	}
	return n
}

// rowTriggers is the per-tuple trigger firings a delete implies: one per
// deleted tuple and child table.
func (r figRun) rowTriggers() int {
	n := 0
	for e, c := range r.before {
		n += (c - r.after[e]) * len(r.m.Table(e).ChildTables)
	}
	return n
}

func rowCounts(s *Store) map[string]int {
	out := make(map[string]int, len(s.M.TableOrder))
	for _, e := range s.M.TableOrder {
		out[e] = s.DB.RowCount(s.M.Table(e).Name)
	}
	return out
}

func mustQuery(t *testing.T, s *Store, sql string) *relational.Rows {
	t.Helper()
	rows, err := s.DB.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows
}

func open(t *testing.T, in figInput, opts Options) *Store {
	t.Helper()
	s, err := Open(in.doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// measure runs w on s, a store freshly opened on in.doc, resetting the
// counters once the targets are chosen. Copies go under the first tuple of
// the root table's parent.
func measure(t *testing.T, in figInput, s *Store, w workload) figRun {
	t.Helper()
	tm := s.M.Table(in.elem)
	r := figRun{m: s.M, elem: in.elem, scanned: s.DB.RowCount(tm.Name)}
	conds := []string{in.where}
	if w.random {
		ids := mustQuery(t, s, "SELECT id FROM "+tm.Name).Data
		n := min(10, len(ids))
		conds = conds[:0]
		for i := 0; i < n; i++ {
			conds = append(conds, fmt.Sprintf("id = %d", ids[i*len(ids)/n][0].MustInt()))
		}
		r.scanned = n
	}
	for _, c := range conds {
		sql := "SELECT DISTINCT parentId FROM " + tm.Name
		if c != "" {
			sql += " WHERE " + c
		}
		r.parents += len(mustQuery(t, s, sql).Data)
	}
	dst := mustQuery(t, s, "SELECT MIN(id) FROM "+s.M.Table(tm.Parent).Name).Data[0][0].MustInt()
	r.clients, r.before = len(conds), rowCounts(s)
	s.DB.ResetStats()
	for _, c := range conds {
		var n int
		var err error
		if w.insert {
			n, err = s.CopySubtrees(in.elem, c, dst)
		} else {
			n, err = s.DeleteSubtrees(in.elem, c)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", in.label, w.method(s.Opt), err)
		}
		r.roots += n
	}
	r.st = s.DB.Stats()
	r.after = rowCounts(s)
	return r
}

// sweep runs w on every input under each strategy, logging one series line
// per run, and returns the runs by strategy in input order.
func sweep(t *testing.T, fig string, w workload, inputs []figInput, opts ...Options) map[Options][]figRun {
	t.Helper()
	runs := make(map[Options][]figRun, len(opts))
	for _, o := range opts {
		for _, in := range inputs {
			r := measure(t, in, open(t, in, o), w)
			logRun(t, fig+" "+w.name, in.label+" "+w.method(o), r)
			runs[o] = append(runs[o], r)
		}
	}
	return runs
}

func logRun(t *testing.T, series, point string, r figRun) {
	t.Helper()
	t.Logf("%s %-26s statements=%-5d trigger_firings=%-5d rows_scanned=%-7d index_probes=%-5d full_scans=%-4d tuples=%-5d changed=%d",
		series, point, r.st.Statements, r.st.TriggerFirings, r.st.RowsScanned,
		r.st.IndexProbes, r.st.FullScans, r.tuples(), r.changed())
}

// The delete series the paper plots; §7.3 compares the cascade separately.
var (
	perTuple = Options{Delete: PerTupleTrigger}
	perStm   = Options{Delete: PerStatementTrigger}
	cascade  = Options{Delete: CascadingDelete}
	asrDel   = Options{Delete: ASRDelete}
	plotted  = []Options{perTuple, perStm, asrDel}

	tupleIns      = Options{Insert: TupleInsert}
	tableIns      = Options{Insert: TableInsert}
	insertMethods = []Options{tupleIns, tableIns, {Insert: ASRInsert}}
)

func expect(t *testing.T, what string, got int64, want int) {
	t.Helper()
	if got != int64(want) {
		t.Errorf("%s = %d, want %d", what, got, want)
	}
}

// checkLaws asserts each run's per-point law, by strategy:
//
//   - per-tuple trigger (§6.1.1): one statement per client statement; one
//     firing per deleted tuple and child table; the firings probe
//     parentId, so the rows read are the roots' lookup plus the deleted
//     descendants.
//   - per-statement trigger (§6.1.1): one statement per client statement;
//     one firing per parent–child table pair, k−1 for a subtree of k
//     tables.
//   - cascade (§6.1.2): those k−1 firings issued from the application, so
//     k statements per client statement.
//   - ASR delete (§6.1.3): per client statement, the root lookup, the
//     mark, one DELETE per subtree table, the marked-prefix read and the
//     ASR delete; then one survivor probe per parent of a deleted root and
//     one left-completeness repair per parent left childless. O(k), and
//     independent of sf and fanout.
//   - tuple insert (§6.2.1): the source read plus one INSERT per copied
//     tuple.
//   - table insert (§6.2.2): per subtree table, create, stage, min/max,
//     remap, insert and drop; then a root count and a root repoint. 6k+2
//     per client statement, whatever the copy's size.
//   - ASR insert (§6.2.3): per client statement, the root lookup, the mark,
//     a min/max and an INSERT…SELECT per subtree table, the destination's
//     ancestor chain, the new paths and the unmark; plus one repoint per
//     copied root.
func checkLaws(t *testing.T, fig string, w workload, inputs []figInput, runs map[Options][]figRun) {
	t.Helper()
	for o, rs := range runs {
		for i, r := range rs {
			label := fmt.Sprintf("%s %s %s", fig, inputs[i].label, w.method(o))
			k, c := r.tables(), r.clients
			if w.insert {
				switch o.Insert {
				case TupleInsert:
					expect(t, label+" statements", r.st.Statements, c+r.changed())
				case TableInsert:
					expect(t, label+" statements", r.st.Statements, c*(6*k+2))
				case ASRInsert:
					expect(t, label+" statements", r.st.Statements, r.roots+c*(2*k+3+r.level()))
				}
				continue
			}
			switch o.Delete {
			case PerTupleTrigger:
				expect(t, label+" statements", r.st.Statements, c)
				expect(t, label+" trigger firings", r.st.TriggerFirings, r.rowTriggers())
				expect(t, label+" rows scanned", r.st.RowsScanned, r.scanned+r.changed()-r.roots)
			case PerStatementTrigger:
				expect(t, label+" statements", r.st.Statements, c)
				expect(t, label+" trigger firings", r.st.TriggerFirings, c*(k-1))
			case CascadingDelete:
				expect(t, label+" statements", r.st.Statements, c*k)
			case ASRDelete:
				expect(t, label+" statements", r.st.Statements, c*(k+4)+r.parents+int(r.st.RowsInserted))
			}
		}
	}
}

// linearInTuples asserts that ys grows linearly with the document: between
// consecutive pairs of sweep points, the ratio of the increases in ys is
// within ±5% of the ratio of the increases in tuples.
func linearInTuples(t *testing.T, what string, rs []figRun, ys func(figRun) int64) {
	t.Helper()
	for i := 2; i < len(rs); i++ {
		got := float64(ys(rs[i])-ys(rs[i-1])) / float64(ys(rs[i-1])-ys(rs[i-2]))
		want := float64(rs[i].tuples()-rs[i-1].tuples()) / float64(rs[i-1].tuples()-rs[i-2].tuples())
		if math.Abs(got/want-1) > 0.05 {
			t.Errorf("%s: growth ratio %.3f between sweep points %d and %d, want %.3f ±5%%", what, got, i-1, i, want)
		}
	}
}

func rowsScanned(r figRun) int64 { return r.st.RowsScanned }

// checkBulkDelete: on the bulk workload both triggers issue one client
// statement while the ASR method reads more rows than either (the ASR
// maintenance behind its bulk loss in Figures 6 and 8).
func checkBulkDelete(t *testing.T, fig string, inputs []figInput) map[Options][]figRun {
	runs := sweep(t, fig, bulkDelete, inputs, plotted...)
	checkLaws(t, fig, bulkDelete, inputs, runs)
	for i, in := range inputs {
		a := runs[asrDel][i].st.RowsScanned
		for _, o := range []Options{perTuple, perStm} {
			if trig := runs[o][i].st.RowsScanned; a <= trig {
				t.Errorf("%s %s: ASR delete scanned %d rows, %s %d; want more", fig, in.label, a, o.Delete, trig)
			}
		}
	}
	return runs
}

// TestFig6Shape — Figure 6, bulk delete across the scaling factor, plus
// the customer database. The ASR method's statements depend on the
// subtree's depth alone, so they are the same at every scaling factor.
func TestFig6Shape(t *testing.T) {
	inputs := sfSweep()
	runs := checkBulkDelete(t, "fig6", append(inputs, custInput(t)))
	for i := range inputs {
		if a, b := runs[asrDel][i].st.Statements, runs[asrDel][0].st.Statements; a != b {
			t.Errorf("fig6 %s: ASR delete issued %d statements, %d at %s; want the same at every sf",
				inputs[i].label, a, b, inputs[0].label)
		}
	}
}

// TestFig8Shape — Figure 8, bulk delete across depth at fanout 4. A
// whole-document delete makes the ASR method's statements k+6: one more
// per level, whatever the number of tuples per level.
func TestFig8Shape(t *testing.T) {
	inputs := depthSweep()
	runs := checkBulkDelete(t, "fig8", inputs)
	for i, r := range runs[asrDel] {
		expect(t, "fig8 "+inputs[i].label+" asr statements", r.st.Statements, r.tables()+6)
	}
}

// checkRandomDelete: the per-tuple trigger reads only what it deletes,
// while the per-statement trigger's orphan scans read whole tables, so its
// rows scanned grow linearly with the document.
func checkRandomDelete(t *testing.T, fig string, inputs []figInput) map[Options][]figRun {
	runs := sweep(t, fig, randomDelete, inputs, plotted...)
	checkLaws(t, fig, randomDelete, inputs, runs)
	for i, r := range runs[perTuple] {
		expect(t, fig+" "+inputs[i].label+" per-tuple rows scanned", r.st.RowsScanned, r.changed())
	}
	linearInTuples(t, fig+" per-stm rows scanned", runs[perStm], rowsScanned)
	return runs
}

// TestFig7Shape — Figure 7, random delete across the scaling factor. The
// 10 deleted subtrees are the same size at every point, so the per-tuple
// trigger's rows scanned are flat while the per-statement trigger's grow
// with the document. The parentId index is what keeps the per-tuple
// trigger flat: without it, each firing scans its child table, and the
// rows scanned grow with the document too.
func TestFig7Shape(t *testing.T) {
	inputs := sfSweep()
	runs := checkRandomDelete(t, "fig7", inputs)
	var ablated []figRun
	for i, in := range inputs {
		expect(t, "fig7 "+in.label+" per-tuple rows scanned (flat in sf)",
			runs[perTuple][i].st.RowsScanned, int(runs[perTuple][0].st.RowsScanned))
		s := open(t, in, perTuple)
		for _, e := range s.M.TableOrder {
			s.DB.MustExec(fmt.Sprintf("DROP INDEX %s (parentId)", s.M.Table(e).Name))
		}
		r := measure(t, in, s, randomDelete)
		logRun(t, "fig7 random delete", in.label+" per-tuple, no parentId index", r)
		if r.st.RowsScanned <= runs[perTuple][i].st.RowsScanned {
			t.Errorf("fig7 %s: per-tuple rows scanned %d without the parentId index, %d with it; want more",
				in.label, r.st.RowsScanned, runs[perTuple][i].st.RowsScanned)
		}
		ablated = append(ablated, r)
	}
	linearInTuples(t, "fig7 per-tuple rows scanned without the parentId index", ablated, rowsScanned)
}

// TestFig9Shape — Figure 9, random delete across depth at fanout 4. The
// per-statement trigger fires d−1 times per client statement.
func TestFig9Shape(t *testing.T) {
	checkRandomDelete(t, "fig9", depthSweep())
}

// TestFig10Shape — Figure 10, bulk insert across depth, and across the
// scaling factor and on the customer database. The tuple method's
// statements grow with the copied tuples; the table method's are fixed by
// the number of tables, so it wins once the copy is large.
func TestFig10Shape(t *testing.T) {
	inputs := append(append(depthSweep(), sfSweep()...), custInput(t))
	checkLaws(t, "fig10", bulkInsert, inputs, sweep(t, "fig10", bulkInsert, inputs, insertMethods...))
}

// TestFig11Shape — Figure 11, random insert (10 subtrees) across depth and
// across the scaling factor, and each customer of the customer database
// copied in turn: the table method's statements are the same for every
// customer, whose subtrees hold one, three and six tuples.
func TestFig11Shape(t *testing.T) {
	inputs := append(append(depthSweep(), sfSweep()...), custInput(t))
	checkLaws(t, "fig11", randomInsert, inputs, sweep(t, "fig11", randomInsert, inputs, insertMethods...))
}

// TestCascadeTracksPerStatement — §7.3: the cascade issues from the
// application exactly the deletes the per-statement triggers fire, so it
// reads the same rows with the same full scans, and its statements are the
// client statements plus those firings.
func TestCascadeTracksPerStatement(t *testing.T) {
	for _, w := range []workload{bulkDelete, randomDelete} {
		inputs := append(sfSweep(), depthSweep()...)
		if !w.random {
			inputs = append(inputs, custInput(t))
		}
		runs := sweep(t, "cascade", w, inputs, perStm, cascade)
		checkLaws(t, "cascade", w, inputs, runs)
		for i, in := range inputs {
			ps, c := runs[perStm][i], runs[cascade][i]
			label := fmt.Sprintf("cascade %s %s", w.name, in.label)
			expect(t, label+" rows scanned", c.st.RowsScanned, int(ps.st.RowsScanned))
			expect(t, label+" full scans", c.st.FullScans, int(ps.st.FullScans))
			expect(t, label+" statements", c.st.Statements, c.clients+int(ps.st.TriggerFirings))
		}
	}
}

// TestTable2Shape — Table 2 on the DBLP-like bibliography: delete, then
// copy under the first conference, the year-2000 publications. The
// deletion touches a small part of a bushy document, so the per-tuple
// trigger reads the fewest rows, the per-statement trigger and the cascade
// read the same, and the ASR method reads the most; the copy is large, so
// the table method issues fewer statements than the tuple method.
func TestTable2Shape(t *testing.T) {
	in := []figInput{{
		label: "dblp",
		doc:   datagen.DBLP(datagen.DBLPParams{Conferences: 30, PubsPerConf: 60, Seed: 11}),
		elem:  "publication",
		where: "a_year = '2000'",
	}}
	dels := sweep(t, "table2", bulkDelete, in, perTuple, perStm, cascade, asrDel)
	checkLaws(t, "table2", bulkDelete, in, dels)
	pt, ps, c, a := dels[perTuple][0].st, dels[perStm][0].st, dels[cascade][0].st, dels[asrDel][0].st
	if !(pt.RowsScanned < ps.RowsScanned && ps.RowsScanned == c.RowsScanned && c.RowsScanned < a.RowsScanned) {
		t.Errorf("table2 delete rows scanned: per-tuple %d, per-stm %d, cascade %d, asr %d; want per-tuple < per-stm = cascade < asr",
			pt.RowsScanned, ps.RowsScanned, c.RowsScanned, a.RowsScanned)
	}
	ins := sweep(t, "table2", bulkInsert, in, insertMethods...)
	checkLaws(t, "table2", bulkInsert, in, ins)
	table, tuple := ins[tableIns][0].st, ins[tupleIns][0].st
	if table.Statements >= tuple.Statements {
		t.Errorf("table2 insert statements: table %d, tuple %d; want table < tuple", table.Statements, tuple.Statements)
	}
}

// pointShape is one statement shape of the point workload (the benchmark's
// pointMix), written against the publication keyed key in the conference
// named conf. read marks a RETURN query.
type pointShape struct {
	name, text string
	read       bool
}

// pointShapes lists every pointMix statement shape, in an order that leaves
// the document as it found it: the publication is inserted, updated, read
// and deleted again.
func pointShapes(conf, key string) []pointShape {
	confPath := `document("dblp.xml")/dblp/conference[name="` + conf + `"]`
	pubPath := `document("dblp.xml")/dblp/conference/publication[@key="` + key + `"]`
	return []pointShape{
		{name: "insert pub", text: `FOR $c IN ` + confPath + ` UPDATE $c { INSERT <publication key="` + key +
			`" year="1999"><title>Point law</title><pages>1-9</pages><author>Author A</author><author>Author B</author><author>Author C</author></publication> }`},
		{name: "replace title", text: `FOR $p IN ` + pubPath + `, $t IN $p/title UPDATE $p { REPLACE $t WITH <title>Point law, revised</title> }`},
		{name: "insert author", text: `FOR $p IN ` + pubPath + ` UPDATE $p { INSERT <author>Author D</author> }`},
		{name: "delete year", text: `FOR $p IN ` + pubPath + `, $y IN $p/@year UPDATE $p { DELETE $y }`},
		{name: "insert year", text: `FOR $p IN ` + pubPath + ` UPDATE $p { INSERT new_attribute(year, "2001") }`},
		{name: "read pub", text: `FOR $p IN ` + pubPath + ` RETURN $p`, read: true},
		{name: "read conf", text: `FOR $c IN ` + confPath + ` RETURN $c`, read: true},
		{name: "delete pub", text: `FOR $c IN ` + confPath + `, $p IN $c/publication[@key="` + key + `"] UPDATE $c { DELETE $p }`},
	}
}

// runPointShape executes one shape and returns the Stats it cost.
func runPointShape(t *testing.T, s *Store, sh pointShape) relational.Stats {
	t.Helper()
	stmt, err := xquery.Parse(sh.text)
	if err != nil {
		t.Fatalf("%s: %v", sh.name, err)
	}
	s.DB.ResetStats()
	if sh.read {
		subs, err := s.QuerySubtrees(stmt)
		if err != nil || len(subs) != 1 {
			t.Fatalf("%s: %d subtrees, err %v", sh.name, len(subs), err)
		}
	} else if n, err := s.Exec(stmt); err != nil || n != 1 {
		t.Fatalf("%s: %d targets, err %v", sh.name, n, err)
	}
	return s.DB.Stats()
}

// TestPointUpdateScaling — a point statement costs a function of the change,
// not of the database ("Answering FO+MOD queries under updates"). Every
// pointMix shape runs against a publication it inserts into the first
// conference, which the generator draws identically whatever the number of
// conferences,
// at 160, 2,400 and 24,000 publications. Its binding SELECT probes the
// value index its `[@key=…]` or `[name=…]` equality derived, and its
// `WHERE id IN (…)` writes probe the id index, so statements issued and
// rows scanned are the same at every size. The reads are point reads too:
// read-conf reads its conference's subtree, which is the same subtree at
// every size. Each outer-union branch joins the condition's one row to its
// parentId chain, so read-pub scans 8 rows and read-conf 516. A warm-up
// pass creates the derived indexes before the measured pass.
func TestPointUpdateScaling(t *testing.T) {
	var first map[string]relational.Stats
	for _, confs := range []int{4, 60, 600} {
		doc := datagen.DBLP(datagen.DBLPParams{Conferences: confs, PubsPerConf: 40, Seed: 7})
		s, err := Open(doc, Options{OrderColumn: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range pointShapes("Conf-000", "law/warm") {
			runPointShape(t, s, sh)
		}
		got := make(map[string]relational.Stats)
		for _, sh := range pointShapes("Conf-000", "law/point") {
			got[sh.name] = runPointShape(t, s, sh)
			st := got[sh.name]
			t.Logf("point %-13s pubs=%-5d statements=%-3d rows_scanned=%-4d index_probes=%-3d full_scans=%d",
				sh.name, s.DB.RowCount(s.M.Table("publication").Name), st.Statements, st.RowsScanned, st.IndexProbes, st.FullScans)
		}
		if first == nil {
			first = got
			continue
		}
		for name, st := range got {
			label := fmt.Sprintf("point %s at %d conferences", name, confs)
			expect(t, label+" statements", st.Statements, int(first[name].Statements))
			expect(t, label+" rows scanned", st.RowsScanned, int(first[name].RowsScanned))
		}
	}
}

// TestLoneWriterTakesNoVersions — with one client, no other session ever
// looks at an update's transaction, so it writes in place: the seven bulk
// strategies and every point shape walk no version chain and leave no
// version for commit to vacuum.
func TestLoneWriterTakesNoVersions(t *testing.T) {
	check := func(what string, st relational.Stats) {
		t.Helper()
		if st.VersionChainHops != 0 || st.VersionsVacuumed != 0 {
			t.Errorf("%s: %d version chain hops, %d versions vacuumed; want 0 and 0",
				what, st.VersionChainHops, st.VersionsVacuumed)
		}
	}
	in := fixedInput("d=3", datagen.FixedParams{ScalingFactor: 20, Depth: 3, Fanout: 4, Seed: 1})
	for _, w := range []workload{bulkDelete, bulkInsert} {
		opts := []Options{perTuple, perStm, cascade, asrDel}
		if w.insert {
			opts = insertMethods
		}
		for _, o := range opts {
			r := measure(t, in, open(t, in, o), w)
			if r.changed() == 0 {
				t.Fatalf("%s %s changed nothing", w.name, w.method(o))
			}
			check(w.name+" "+w.method(o), r.st)
		}
	}
	doc := datagen.DBLP(datagen.DBLPParams{Conferences: 4, PubsPerConf: 40, Seed: 7})
	s, err := Open(doc, Options{OrderColumn: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range pointShapes("Conf-000", "law/lone") {
		check("point "+sh.name, runPointShape(t, s, sh))
	}
}

// TestRandomizedDeleteRuns — §7.1.2 repeats the random delete on
// randomized documents, whose subtrees vary in depth and fanout. The
// per-tuple trigger still reads only what it deletes, which is less than
// the per-statement trigger reads.
func TestRandomizedDeleteRuns(t *testing.T) {
	var inputs []figInput
	for _, sf := range []int{25, 50, 100} {
		inputs = append(inputs, figInput{
			label: fmt.Sprintf("sf=%d", sf),
			doc:   datagen.Randomized(datagen.RandomizedParams{ScalingFactor: sf, MaxDepth: 6, MaxFanout: 4, Seed: 3}),
			elem:  "e1",
		})
	}
	runs := sweep(t, "randdoc", randomDelete, inputs, plotted...)
	for i, r := range runs[perTuple] {
		label := "randdoc " + inputs[i].label + " per-tuple"
		expect(t, label+" statements", r.st.Statements, r.clients)
		expect(t, label+" trigger firings", r.st.TriggerFirings, r.rowTriggers())
		expect(t, label+" rows scanned", r.st.RowsScanned, r.changed())
		if ps := runs[perStm][i].st.RowsScanned; r.st.RowsScanned >= ps {
			t.Errorf("%s rows scanned %d, per-stm %d; want fewer", label, r.st.RowsScanned, ps)
		}
	}
}

// TestASRCopyScaling — copying one publication under a store that keeps an
// ASR costs a function of the copy. Tuple insert hands its new tuples to
// the ASR's walk writer, and table insert copies the source roots' paths
// with one offset INSERT…SELECT that probes the roots' level column, so
// their statements and rows scanned are the same at 160, 1,280 and 2,400
// publications. ASR insert still finds the source through the mark, whose
// column has no index: its rows scanned grow with the ASR (ROADMAP item
// 15).
func TestASRCopyScaling(t *testing.T) {
	for _, c := range []struct {
		o    Options
		flat bool
	}{
		{Options{Delete: ASRDelete, Insert: TupleInsert}, true},
		{Options{Delete: ASRDelete, Insert: TableInsert}, true},
		{Options{Insert: ASRInsert}, false},
	} {
		var runs []figRun
		for _, confs := range []int{4, 32, 60} {
			in := figInput{
				label: fmt.Sprintf("confs=%d", confs),
				doc:   datagen.DBLP(datagen.DBLPParams{Conferences: confs, PubsPerConf: 40, Seed: 7}),
				elem:  "publication",
			}
			s := open(t, in, c.o)
			in.where = fmt.Sprintf("id = %d", mustQuery(t, s, "SELECT MIN(id) FROM "+s.M.Table(in.elem).Name).Data[0][0].MustInt())
			r := measure(t, in, s, workload{name: "asr copy", insert: true})
			logRun(t, fmt.Sprintf("asr copy %s/%s", c.o.Delete, c.o.Insert), in.label, r)
			runs = append(runs, r)
		}
		label := fmt.Sprintf("asr copy %s/%s", c.o.Delete, c.o.Insert)
		if !c.flat {
			linearInTuples(t, label+" rows scanned", runs, rowsScanned)
			continue
		}
		for i, r := range runs[1:] {
			expect(t, fmt.Sprintf("%s point %d statements", label, i+1), r.st.Statements, int(runs[0].st.Statements))
			expect(t, fmt.Sprintf("%s point %d rows scanned", label, i+1), r.st.RowsScanned, int(runs[0].st.RowsScanned))
		}
	}
}
