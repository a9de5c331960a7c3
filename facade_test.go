package adjarray_test

// facade_test.go — exercises every public wrapper the other root tests
// don't reach, keeping the facade honest (a wrapper that compiles but
// forwards to the wrong function would otherwise slip through).

import (
	"math"
	"testing"

	"adjarray"
)

func TestFacadeBuilderAndMul(t *testing.T) {
	b := adjarray.NewBuilder[float64](nil)
	b.Set("r", "k1", 2).Set("r", "k2", 3)
	a := b.Build()
	c := adjarray.FromTriples([]adjarray.Triple[float64]{
		{Row: "k1", Col: "x", Val: 10}, {Row: "k2", Col: "x", Val: 100},
	}, nil)
	prod, err := adjarray.Mul(a, c, adjarray.PlusTimes(), adjarray.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := prod.At("r", "x"); v != 2*10+3*100 {
		t.Errorf("Mul = %v", v)
	}
	dense, err := adjarray.MulDense(a, c, adjarray.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(prod, func(x, y float64) bool { return x == y }) {
		t.Error("MulDense disagrees with Mul for a compliant pair")
	}
}

func TestFacadeEWise(t *testing.T) {
	a := adjarray.FromTriples([]adjarray.Triple[float64]{{Row: "r", Col: "c", Val: 1}}, nil)
	b := adjarray.FromTriples([]adjarray.Triple[float64]{{Row: "r", Col: "c", Val: 2}}, nil)
	sum, err := adjarray.EWiseAdd(a, b, adjarray.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sum.At("r", "c"); v != 3 {
		t.Errorf("EWiseAdd = %v", v)
	}
	prod, err := adjarray.EWiseMul(a, b, adjarray.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := prod.At("r", "c"); v != 2 {
		t.Errorf("EWiseMul = %v", v)
	}
}

func TestFacadeIncidenceAndAdjacency(t *testing.T) {
	g, err := adjarray.NewGraph([]adjarray.Edge{
		{Key: "k1", Src: "a", Dst: "b"},
		{Key: "k2", Src: "b", Dst: "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	eout, ein, err := adjarray.Incidence(g, adjarray.PlusTimes(), adjarray.Weights[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := adjarray.Adjacency(eout, ein, adjarray.PlusTimes(), adjarray.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := a.At("a", "b"); v != 1 {
		t.Errorf("Adjacency(a,b) = %v", v)
	}
}

func TestFacadeMulKeys(t *testing.T) {
	a := adjarray.FromTriples([]adjarray.Triple[float64]{{Row: "r", Col: "k", Val: 1}}, nil)
	b := adjarray.FromTriples([]adjarray.Triple[float64]{{Row: "k", Col: "c", Val: 1}}, nil)
	prov, err := adjarray.MulKeys(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := prov.At("r", "c"); !s.Equal(adjarray.NewSet("k")) {
		t.Errorf("MulKeys = %v", s)
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	a := adjarray.FromTriples([]adjarray.Triple[float64]{
		{Row: "a", Col: "b", Val: 2},
		{Row: "b", Col: "c", Val: 2},
	}, nil)

	levels, err := adjarray.BFSLevels(a, "a")
	if err != nil || levels["c"] != 2 {
		t.Errorf("BFSLevels = %v, %v", levels, err)
	}
	dist, err := adjarray.SSSP(a, "a")
	if err != nil || dist["c"] != 4 {
		t.Errorf("SSSP = %v, %v", dist, err)
	}
	width, err := adjarray.WidestPath(a, "a")
	if err != nil || width["c"] != 2 {
		t.Errorf("WidestPath = %v, %v", width, err)
	}
	comp, err := adjarray.Components(a)
	if err != nil || comp["c"] != "a" {
		t.Errorf("Components = %v, %v", comp, err)
	}
	tc, err := adjarray.TransitiveClosure(a)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tc.At("a", "c"); !ok || !v {
		t.Error("TransitiveClosure missing a→c")
	}
	out := adjarray.OutDegrees(a)
	in := adjarray.InDegrees(a)
	if out["a"] != 1 || in["c"] != 1 {
		t.Errorf("degrees = %v / %v", out, in)
	}
	rank, iters, err := adjarray.PageRank(a, 0.85, 1e-8, 100)
	if err != nil || iters == 0 {
		t.Fatalf("PageRank: %v", err)
	}
	sum := 0.0
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("PageRank sum = %v", sum)
	}

	// Symmetric triangle for TriangleCount.
	tri := adjarray.FromTriples([]adjarray.Triple[float64]{
		{Row: "a", Col: "b", Val: 1}, {Row: "b", Col: "a", Val: 1},
		{Row: "b", Col: "c", Val: 1}, {Row: "c", Col: "b", Val: 1},
		{Row: "a", Col: "c", Val: 1}, {Row: "c", Col: "a", Val: 1},
	}, nil)
	n, err := adjarray.TriangleCount(tri)
	if err != nil || n != 1 {
		t.Errorf("TriangleCount = %d, %v", n, err)
	}
}

func TestFacadeConformance(t *testing.T) {
	names := adjarray.ConformancePaths()
	if len(names) < 5 {
		t.Fatalf("conformance path roster too small: %v", names)
	}
	if err := adjarray.SelfCheck(17, 8); err != nil {
		d, ok := err.(*adjarray.ConformanceDivergence)
		if !ok {
			t.Fatalf("SelfCheck: %v", err)
		}
		t.Fatalf("construction paths diverged: %s", d.Error())
	}
}

func TestFacadeCSRGraphAndStreaming(t *testing.T) {
	// A maintained store ingests a mix of weighted and unweighted edges
	// under max.min — the widest-path pair whose One (+Inf) the old
	// Zero-sentinel convention could not produce from Go zero values.
	v, err := adjarray.OpenAdjacencyStore("", adjarray.MaxMin(), 1, adjarray.DurableStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Append([]adjarray.StreamEdge[float64]{
		{Src: "a", Dst: "b"}, // unweighted: width +Inf
		adjarray.WeightedStreamEdge("", "b", "c", 3.0, 3),
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := snap.Adjacency.At("a", "b"); !ok || !math.IsInf(w, 1) {
		t.Fatalf("unweighted max.min edge = %v (stored=%v), want +Inf", w, ok)
	}

	g, err := adjarray.NewCSRGraph(snap.Adjacency)
	if err != nil {
		t.Fatal(err)
	}
	width, err := g.WidestPath("a")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := adjarray.WidestPath(snap.Adjacency, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(width) != len(oracle) || width["c"] != oracle["c"] || width["c"] != 3 {
		t.Fatalf("CSR widest = %v, oracle = %v", width, oracle)
	}

	levels, err := g.BFSLevels("a")
	if err != nil {
		t.Fatal(err)
	}
	if levels["c"] != 2 {
		t.Fatalf("CSR BFS levels = %v", levels)
	}
	if _, err := adjarray.NewCSRGraphPattern(snap.Adjacency); err != nil {
		t.Fatal(err)
	}
}
