package adjarray_test

// figures_test.go — golden reproduction tests: every figure of the
// paper is regenerated through the public pipeline and compared against
// the values printed in the paper. These are the repository's
// ground-truth claims; EXPERIMENTS.md summarizes their outcomes.

import (
	"strings"
	"testing"

	"adjarray"
	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

func eqFloat(a, b float64) bool { return value.Float64Equal(a, b) }

// Figure 1: the exploded incidence array E — 22 tracks × 31 columns
// with the row-degree profile visible in the paper's raster.
func TestGoldenFigure1(t *testing.T) {
	e := dataset.MusicIncidence()
	if r, c := e.Shape(); r != 22 || c != 31 {
		t.Fatalf("E is %d×%d, want 22×31", r, c)
	}
	for row, want := range dataset.Figure1RowDegrees() {
		if got := e.RowDegrees()[row]; got != want {
			t.Errorf("row %s degree %d, want %d", row, got, want)
		}
	}
	total := 0
	for _, d := range dataset.Figure1RowDegrees() {
		total += d
	}
	if e.NNZ() != total {
		t.Errorf("E nnz = %d, want %d", e.NNZ(), total)
	}
}

// Figure 2: the E1/E2 sub-array selection with the paper's Matlab-style
// range expressions.
func TestGoldenFigure2(t *testing.T) {
	e := dataset.MusicIncidence()
	e1, err := e.SubRefExpr(":", "Genre|A : Genre|Z")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e.SubRefExpr(":", "Writer|A : Writer|Z")
	if err != nil {
		t.Fatal(err)
	}
	if e1.ColKeys().Len() != 3 || e1.NNZ() != 30 {
		t.Errorf("E1: %d cols %d nnz, want 3 cols 30 nnz", e1.ColKeys().Len(), e1.NNZ())
	}
	if e2.ColKeys().Len() != 5 || e2.NNZ() != 45 {
		t.Errorf("E2: %d cols %d nnz, want 5 cols 45 nnz", e2.ColKeys().Len(), e2.NNZ())
	}
	// Selection must preserve all 22 track rows.
	if e1.RowKeys().Len() != 22 || e2.RowKeys().Len() != 22 {
		t.Error("sub-array selection dropped track rows")
	}
}

// Figures 3 and 5: the seven operator-pair correlations, compared
// value-for-value against the arrays printed in the paper.
func TestGoldenFigures3And5(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	e1w := dataset.MusicE1Weighted()
	cases := []struct {
		fig      string
		lhs      *assoc.Array[float64]
		expected map[string]*assoc.Array[float64]
	}{
		{"Figure 3", e1, dataset.Figure3Expected()},
		{"Figure 5", e1w, dataset.Figure5Expected()},
	}
	for _, c := range cases {
		for _, ops := range semiring.Figure3Pairs() {
			got, err := adjarray.Correlate(c.lhs, e2, ops, adjarray.MulOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(c.expected[ops.Name], eqFloat) {
				t.Errorf("%s %s: mismatch\ngot:\n%swant:\n%s", c.fig, ops.Name,
					assoc.Format(got, value.FormatFloat),
					assoc.Format(c.expected[ops.Name], value.FormatFloat))
			}
		}
	}
}

// Figure 4: the re-weighted E1 (Electronic=1, Pop=2, Rock=3) with the
// Figure 2 pattern preserved.
func TestGoldenFigure4(t *testing.T) {
	e1, _ := dataset.MusicE1E2()
	w := dataset.MusicE1Weighted()
	if !assoc.SamePattern(e1, w) {
		t.Fatal("Figure 4 changed the sparsity pattern")
	}
	counts := map[float64]int{}
	w.Iterate(func(_, _ string, v float64) { counts[v]++ })
	// 10 Electronic entries (1s), 14 Pop (2s), 6 Rock (3s).
	if counts[1] != 10 || counts[2] != 14 || counts[3] != 6 {
		t.Errorf("value histogram = %v, want 1:10 2:14 3:6", counts)
	}
}

// Cross-backend agreement on the headline figure: every construction
// engine computes the same Figure 3 panel — the fold across two workers
// too, forced past the flop floor the figure's size is below.
func TestGoldenFigure3AcrossBackends(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	want := dataset.Figure3Expected()["+.*"]
	for _, req := range []adjarray.BuildRequest{{}, {Backend: adjarray.BackendDense}} {
		req.Eout, req.Ein, req.Semiring = e1, e2, "+.*"
		res, err := adjarray.Build(req)
		if err != nil {
			t.Fatalf("%q: %v", req.Backend, err)
		}
		if !res.Adjacency.Equal(want, eqFloat) {
			t.Errorf("%q: Figure 3 +.* differs", req.Backend)
		}
	}
	par, err := adjarray.Correlate(e1, e2, adjarray.PlusTimes(), adjarray.MulOptions{Workers: 2, FlopFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !par.Equal(want, eqFloat) {
		t.Error("2 workers: Figure 3 +.* differs")
	}
}

// The paper's closing remark in Section III: (AB)ᵀ = BᵀAᵀ requires ⊗
// commutativity; the figure pipeline itself satisfies it because all
// seven pairs commute.
func TestGoldenTransposeIdentityOnFigures(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	for _, ops := range semiring.Figure3Pairs() {
		ab, err := adjarray.Correlate(e1, e2, ops, adjarray.MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ba, err := adjarray.Correlate(e2, e1, ops, adjarray.MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !ab.Transpose().Equal(ba, eqFloat) {
			t.Errorf("%s: (E1ᵀE2)ᵀ ≠ E2ᵀE1 despite commutative ⊗", ops.Name)
		}
	}
}

// Theorem II.1 executed over the whole registry (experiments E6/E7):
// compliant pairs verify on a structural zoo of graphs; non-compliant
// pairs yield concrete gadget violations.
func TestGoldenTheoremSweep(t *testing.T) {
	zoo := graph.MustNew([]graph.Edge{
		{Key: "e1", Src: "a", Dst: "b"},
		{Key: "e2", Src: "a", Dst: "b"}, // parallel
		{Key: "e3", Src: "b", Dst: "b"}, // self-loop
		{Key: "e4", Src: "b", Dst: "c"},
		{Key: "e5", Src: "d", Dst: "a"}, // d is a pure source
		{Key: "e6", Src: "c", Dst: "e"}, // e is a pure sink
	})
	for _, e := range semiring.Registry() {
		r := semiring.Check(e.Ops, e.Sample, value.FormatFloat)
		v := adjarray.FindViolation(e.Ops, e.Sample)
		if r.TheoremII1() {
			if v != nil {
				t.Errorf("%s: compliant but violation found: %s", e.Name, v)
			}
			if err := adjarray.VerifyConstruction(zoo, e.Ops, graph.Weights[float64]{}); err != nil {
				t.Errorf("%s: construction failed on zoo graph: %v", e.Name, err)
			}
		} else if v == nil {
			t.Errorf("%s: non-compliant but no violation demonstrated", e.Name)
		}
	}
}

// The grid renderer reproduces the paper's display conventions: blank
// cells for structural zeros, integral values without decimal points.
func TestGoldenFigureRendering(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	a, err := adjarray.Correlate(e1, e2, adjarray.PlusTimes(), adjarray.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := assoc.Format(a, value.FormatFloat)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 genre rows
		t.Fatalf("rendered %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "Writer|Barrett Rich") {
		t.Error("header missing writer columns")
	}
	if !strings.Contains(lines[1], " 13") && !strings.Contains(lines[2], " 13") {
		t.Error("Pop row should contain 13")
	}
	if strings.Contains(out, "13.0") {
		t.Error("integral values must print without decimals")
	}
}
