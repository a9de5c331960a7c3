// Music metadata pipeline — the paper's Section IV worked end to end.
//
// A database table of music tracks is exploded into a sparse incidence
// array (Figure 1), genre and writer sub-arrays are selected with
// Matlab-style key ranges (Figure 2), and writer×genre adjacency arrays
// are constructed under the seven operator pairs of Figures 3 and 5,
// showing how ⊕ chooses between aggregating and selecting edges. Every
// panel is compared with the values printed in the paper.
//
// Run with: go run ./examples/music
package main

import (
	"fmt"
	"log"

	"adjarray"
	"adjarray/internal/dataset"
)

func main() {
	// 1. Raw data: a dense relational table, 22 tracks × 7 fields.
	table := dataset.MusicTable()
	fmt.Printf("source table: %d tracks × %d fields\n\n", len(table.Rows), len(table.Fields))

	// 2. Explode into the D4M sparse view: every (field, value) pair
	// becomes its own column "field|value" with entry 1 (Figure 1).
	e, err := adjarray.Explode(table, adjarray.ExplodeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rows, cols := e.Shape()
	fmt.Printf("exploded incidence array E: %d×%d, %d entries\n\n", rows, cols, e.NNZ())

	// 3. Select the genre and writer column families (Figure 2) with
	// the paper's range notation.
	e1, err := e.SubRefExpr(":", "Genre|A : Genre|Z")
	if err != nil {
		log.Fatal(err)
	}
	e2, err := e.SubRefExpr(":", "Writer|A : Writer|Z")
	if err != nil {
		log.Fatal(err)
	}

	// 4. Correlate: A = E1ᵀ ⊕.⊗ E2 relates genres to writers through
	// shared tracks. Under +.× the value counts co-occurrences; under
	// max.min it only records existence (Figure 3).
	panels("Figure 3", e1, e2, dataset.Figure3Expected())

	// 5. Re-weight E1 (Figure 4: Electronic=1, Pop=2, Rock=3) and watch
	// how each ⊗ propagates the diverse weights (Figure 5).
	e1w := e1.Map(func(row, col string, v float64) float64 {
		switch col {
		case "Genre|Pop":
			return 2
		case "Genre|Rock":
			return 3
		default:
			return 1
		}
	})
	fmt.Printf("re-weighted E1 matches Figure 4: %v\n\n", e1w.Equal(dataset.MusicE1Weighted(), same))
	panels("Figure 5", e1w, e2, dataset.Figure5Expected())

	// 6. The same correlation through the end-to-end Build service,
	// which checks the Theorem II.1 conditions first.
	res, err := adjarray.Build(adjarray.BuildRequest{
		Eout: e1, Ein: e2, Semiring: "min.+", Workers: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Build(min.+, all cores): nnz=%d, conditions ok=%v\n",
		res.Adjacency.NNZ(), res.Report.TheoremII1())
}

// panels prints E1ᵀ ⊕.⊗ E2 under each of the paper's seven pairs and
// whether it equals the figure's panel.
func panels(figure string, e1, e2 *adjarray.Array[float64], paper map[string]*adjarray.Array[float64]) {
	for _, ops := range adjarray.Figure3Pairs() {
		a, err := adjarray.Correlate(e1, e2, ops, adjarray.MulOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("E1ᵀ %s E2 (%s panel):\n%s", ops.Name, figure, adjarray.Format(a, adjarray.FormatFloat))
		fmt.Printf("matches the paper: %v\n\n", a.Equal(paper[ops.Name], same))
	}
}

func same(x, y float64) bool { return x == y }
