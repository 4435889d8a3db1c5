// Command xshred shreds an XML document into the Shared Inlining relational
// schema (§5.1), prints the generated schema and table statistics, and can
// round-trip the document back out of the tables.
//
// Usage:
//
//	xshred -doc custdb.xml [-dtd custdb.dtd] [-dump] [-reconstruct] [-edge]
//
// With -data, the shredded tables live in a persistent, write-ahead-logged
// store: the first invocation shreds -doc into the directory; later
// invocations (no -doc needed) reopen it, so xupdate -data can apply
// updates between xshred runs:
//
//	xshred -data ./store -doc custdb.xml -dtd custdb.dtd   # initialize
//	xshred -data ./store -reconstruct                      # inspect later
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/relational"
	"repro/internal/shred"
	"repro/internal/xmltree"
)

func main() {
	var (
		docPath     = flag.String("doc", "", "XML document to shred (required without -data)")
		dtdPath     = flag.String("dtd", "", "external DTD (required unless the document has an internal subset)")
		dump        = flag.Bool("dump", false, "dump table contents")
		reconstruct = flag.Bool("reconstruct", false, "rebuild and print the document from the tables")
		edge        = flag.Bool("edge", false, "use the Edge mapping instead of Shared Inlining")
		order       = flag.Bool("order", false, "store an order column (pos)")
		dataDir     = flag.String("data", "", "persistent store directory (shred once, reopen later)")
	)
	flag.Parse()
	var err error
	if *dataDir != "" {
		err = runData(*dataDir, *docPath, *dtdPath, *dump, *reconstruct, *edge, *order)
	} else {
		err = run(*docPath, *dtdPath, *dump, *reconstruct, *edge, *order)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xshred:", err)
		os.Exit(1)
	}
}

// runData shreds into (or reopens) a persistent store.
func runData(dataDir, docPath, dtdPath string, dump, reconstruct, edge, order bool) error {
	if edge {
		return fmt.Errorf("-edge has no persistent form; use Shared Inlining with -data")
	}
	var doc *xmltree.Document
	if docPath != "" {
		var err error
		if doc, err = xmltree.LoadFile(docPath, dtdPath); err != nil {
			return err
		}
	}
	s, err := engine.OpenDir(dataDir, doc, engine.Options{OrderColumn: order}, relational.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	fmt.Println("-- schema --")
	for _, sql := range s.M.CreateTablesSQL() {
		fmt.Println(sql + ";")
	}
	fmt.Printf("-- %d tuples stored, next id %d --\n", s.TupleCount(), s.NextID())
	return report(s, dump, reconstruct)
}

// report prints each table's row count, then optionally every table's
// contents and the document rebuilt through Store.Reconstruct.
func report(s *engine.Store, dump, reconstruct bool) error {
	for _, elem := range s.M.TableOrder {
		tm := s.M.Table(elem)
		fmt.Printf("%-24s %6d rows (element <%s>, parent %q)\n",
			tm.Name, s.DB.RowCount(tm.Name), tm.Element, tm.Parent)
	}
	if dump {
		for _, elem := range s.M.TableOrder {
			if err := dumpTable(s.DB, s.M.Table(elem).Name); err != nil {
				return err
			}
		}
	}
	if reconstruct {
		re, err := s.Reconstruct()
		if err != nil {
			return err
		}
		fmt.Println(re.Indented())
	}
	return nil
}

func run(docPath, dtdPath string, dump, reconstruct, edge, order bool) error {
	if docPath == "" {
		return fmt.Errorf("-doc is required")
	}
	doc, err := xmltree.LoadFile(docPath, dtdPath)
	if err != nil {
		return err
	}
	if edge {
		db := relational.NewDB()
		n, err := shred.LoadEdge(db, doc)
		if err != nil {
			return err
		}
		fmt.Printf("Edge mapping: %d edge tuples\n", n)
		if dump {
			if err := dumpTable(db, "Edge"); err != nil {
				return err
			}
		}
		if reconstruct {
			re, err := shred.ReconstructEdge(db)
			if err != nil {
				return err
			}
			fmt.Println(re.Indented())
		}
		return nil
	}

	if doc.DTD == nil {
		return fmt.Errorf("Shared Inlining requires a DTD (use -dtd, or -edge for the DTD-less mapping)")
	}
	s, err := engine.Open(doc, engine.Options{OrderColumn: order})
	if err != nil {
		return err
	}
	fmt.Println("-- generated schema --")
	for _, sql := range s.M.CreateTablesSQL() {
		fmt.Println(sql + ";")
	}
	fmt.Printf("-- loaded %d tuples --\n", s.TupleCount())
	return report(s, dump, reconstruct)
}

func dumpTable(db *relational.DB, name string) error {
	rows, err := db.Query("SELECT * FROM " + name)
	if err != nil {
		return fmt.Errorf("dumping table %s: %w", name, err)
	}
	fmt.Printf("\n-- %s (%s) --\n", name, strings.Join(rows.Cols, ", "))
	for _, row := range rows.Data {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = relational.FormatValue(v)
		}
		fmt.Println("  " + strings.Join(parts, ", "))
	}
	return nil
}
