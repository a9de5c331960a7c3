// Command adjbuild is the production pipeline: it reads source and
// target incidence arrays from TSV triple files (row<TAB>col<TAB>val),
// constructs the adjacency array under a chosen ⊕.⊗ operator pair and
// backend, and writes the result as TSV triples (or a formatted grid).
//
// The Theorem II.1 conditions are checked against both the pair's
// canonical domain and the values present in the data; construction is
// refused (with the gadget counterexample printed) unless -force.
//
// Usage:
//
//	adjbuild -eout eout.tsv -ein ein.tsv -semiring "+.*" -o adj.tsv
//	adjbuild -eout eout.tsv -ein ein.tsv -semiring max.min -workers -1 -grid
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"adjarray/internal/assoc"
	"adjarray/internal/core"
	"adjarray/internal/render"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

func main() {
	eoutPath := flag.String("eout", "", "TSV triples of the source incidence array Eout (required)")
	einPath := flag.String("ein", "", "TSV triples of the target incidence array Ein (required)")
	sr := flag.String("semiring", "+.*", "operator pair name")
	backend := flag.String("backend", "", "construction backend other than the sparse engine: dense")
	workers := flag.Int("workers", 0, "worker count (0 or 1 = serial, <0 = all cores)")
	out := flag.String("o", "-", "output TSV path ('-' = stdout)")
	grid := flag.Bool("grid", false, "print a formatted grid instead of TSV triples")
	force := flag.Bool("force", false, "construct even if the algebra violates the Theorem II.1 conditions")
	validate := flag.Bool("validate", false, "validate the result against the graph encoded by the incidence arrays")
	flag.Parse()

	if *eoutPath == "" || *einPath == "" {
		fmt.Fprintln(os.Stderr, "adjbuild: -eout and -ein are required")
		flag.Usage()
		os.Exit(2)
	}
	eout, err := readArray(*eoutPath)
	if err != nil {
		fatal(err)
	}
	ein, err := readArray(*einPath)
	if err != nil {
		fatal(err)
	}

	res, err := core.Build(core.Request{
		Eout: eout, Ein: ein,
		Semiring:           *sr,
		Backend:            core.Backend(*backend),
		Workers:            *workers,
		SkipConditionCheck: *force,
		Validate:           *validate,
	})
	if err != nil {
		if res != nil && res.Violation != nil {
			fmt.Fprintln(os.Stderr, "adjbuild: construction refused; counterexample gadget:")
			fmt.Fprintf(os.Stderr, "  %s\n", res.Violation)
			fmt.Fprintln(os.Stderr, "  (pass -force to construct anyway)")
		}
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "adjbuild: %s backend=%q workers=%d nnz=%d elapsed=%s\n",
		res.Ops.Name, *backend, *workers, res.Adjacency.NNZ(), res.Elapsed)

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if *grid {
		fmt.Fprint(w, assoc.Format(res.Adjacency, value.FormatFloat))
		return
	}
	if err := writeArray(w, res.Adjacency); err != nil {
		fatal(err)
	}
}

func readArray(path string) (*assoc.Array[float64], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := render.ReadTriples(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ts := make([]assoc.Triple[float64], 0, len(recs))
	for _, r := range recs {
		v, err := value.ParseFloat(r.Val)
		if err != nil {
			return nil, fmt.Errorf("%s: value %q: %w", path, r.Val, err)
		}
		ts = append(ts, assoc.Triple[float64]{Row: r.Row, Col: r.Col, Val: v})
	}
	return assoc.FromTriples(ts, nil), nil
}

func writeArray(w io.Writer, a *assoc.Array[float64]) error {
	var recs []render.TripleRecord
	a.Iterate(func(row, col string, v float64) {
		recs = append(recs, render.TripleRecord{Row: row, Col: col, Val: value.FormatFloat(v)})
	})
	return render.WriteTriples(w, recs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adjbuild:", err)
	os.Exit(1)
}

func init() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: adjbuild -eout E.tsv -ein E2.tsv [flags]\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "known operator pairs: %v\n", semiring.Names())
	}
}
