// Command explode converts a dense TSV table (spreadsheet/database
// dump) into the sparse incidence-array triples of Figure 1: every
// distinct (field, value) pair becomes a column "field|value" holding 1.
// The output feeds directly into adjbuild.
//
// Usage:
//
//	explode -in table.tsv -o triples.tsv
//	explode -in table.tsv -sep : -multisep , -o -
//
// Input format: first line "<rowKeyHeader>\tField1\tField2…", then one
// line per record; empty cells are absent, ';' separates multi-values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"adjarray/internal/assoc"
	"adjarray/internal/render"
	"adjarray/internal/value"
)

func main() {
	in := flag.String("in", "", "input dense TSV table (required; '-' = stdin)")
	out := flag.String("o", "-", "output TSV triples ('-' = stdout)")
	sep := flag.String("sep", "|", "field/value separator in exploded column keys")
	multi := flag.String("multisep", ";", "multi-value separator within cells")
	grid := flag.Bool("grid", false, "print the exploded array as a grid instead of triples")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "explode: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	td, err := render.ReadTable(r)
	if err != nil {
		fatal(err)
	}
	e, err := assoc.Explode(assoc.Table{
		Rows: td.Rows, Fields: td.Fields, Cells: td.Cells,
	}, assoc.ExplodeOptions{Sep: *sep, MultiSep: *multi})
	if err != nil {
		fatal(err)
	}
	rows, cols := e.Shape()
	fmt.Fprintf(os.Stderr, "explode: %d records × %d fields -> %d×%d incidence array, %d entries\n",
		len(td.Rows), len(td.Fields), rows, cols, e.NNZ())

	err = render.WriteOutput(*out, func(w io.Writer) error {
		if *grid {
			_, err := fmt.Fprint(w, assoc.Format(e, value.FormatFloat))
			return err
		}
		var recs []render.TripleRecord
		e.Iterate(func(row, col string, v float64) {
			recs = append(recs, render.TripleRecord{Row: row, Col: col, Val: value.FormatFloat(v)})
		})
		return render.WriteTriples(w, recs)
	})
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explode:", err)
	os.Exit(1)
}
