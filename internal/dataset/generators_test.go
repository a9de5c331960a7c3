package dataset

import (
	"math/rand"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

func TestErdosRenyiDeterministic(t *testing.T) {
	g1 := ErdosRenyi(rand.New(rand.NewSource(9)), 20, 0.1)
	g2 := ErdosRenyi(rand.New(rand.NewSource(9)), 20, 0.1)
	if g1.NumEdges() != g2.NumEdges() {
		t.Error("same seed produced different graphs")
	}
	g3 := ErdosRenyi(rand.New(rand.NewSource(10)), 20, 0.1)
	if g1.NumEdges() == g3.NumEdges() && g1.String() == g3.String() {
		t.Log("different seeds produced equal edge counts (possible, not an error)")
	}
}

func TestErdosRenyiNeverEmpty(t *testing.T) {
	g := ErdosRenyi(rand.New(rand.NewSource(1)), 5, 0)
	if g.NumEdges() == 0 {
		t.Error("generator must keep graphs non-degenerate")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	n, p := 50, 0.2
	g := ErdosRenyi(rand.New(rand.NewSource(4)), n, p)
	want := float64(n*n) * p
	got := float64(g.NumEdges())
	if got < want*0.6 || got > want*1.4 {
		t.Errorf("edge count %v far from expectation %v", got, want)
	}
}

func TestRMATShapeAndSkew(t *testing.T) {
	g := RMAT(rand.New(rand.NewSource(2)), 8, 8) // 256 vertices, 2048 edges
	if g.NumEdges() != 8*256 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.Vertices().Len() > 256 {
		t.Error("vertex keys exceed 2^scale")
	}
	// Power-law skew: the busiest source should far exceed the mean.
	counts := map[string]int{}
	for _, e := range g.Edges() {
		counts[e.Src]++
	}
	maxDeg := 0
	for _, c := range counts {
		if c > maxDeg {
			maxDeg = c
		}
	}
	mean := float64(g.NumEdges()) / float64(len(counts))
	if float64(maxDeg) < 3*mean {
		t.Errorf("R-MAT skew too flat: max=%d mean=%.1f", maxDeg, mean)
	}
}

func TestBipartiteSidesDisjoint(t *testing.T) {
	g := Bipartite(rand.New(rand.NewSource(3)), 10, 15, 40)
	if g.NumEdges() != 40 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	for i := 0; i < g.OutVertices().Len(); i++ {
		if k := g.OutVertices().Key(i); k[0] != 'l' {
			t.Errorf("source %q not on the left side", k)
		}
	}
	for i := 0; i < g.InVertices().Len(); i++ {
		if k := g.InVertices().Key(i); k[0] != 'r' {
			t.Errorf("target %q not on the right side", k)
		}
	}
}

func TestMultiEdgeParallelism(t *testing.T) {
	g := multiEdge(rand.New(rand.NewSource(8)), 5, 30, 4)
	maxPar := 0
	for _, e := range g.Edges() {
		if n := len(g.EdgesBetween(e.Src, e.Dst)); n > maxPar {
			maxPar = n
		}
	}
	if maxPar < 2 {
		t.Error("multiEdge should produce parallel edges")
	}
}

// Theorem II.1 forward direction across every generator family: this is
// experiment E6's inner loop.
func TestVerifyConstructionAcrossGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	gs := []*graph.Graph{
		ErdosRenyi(r, 24, 0.08),
		RMAT(r, 5, 4),
		Bipartite(r, 12, 9, 50),
		multiEdge(r, 8, 25, 3),
	}
	for gi, g := range gs {
		for _, ops := range semiring.Figure3Pairs() {
			if err := graph.VerifyConstruction(g, ops, graph.Weights[float64]{}); err != nil {
				t.Errorf("generator %d under %s: %v", gi, ops.Name, err)
			}
		}
		if err := graph.VerifyReverse(g, semiring.PlusTimes(), graph.Weights[float64]{}); err != nil {
			t.Errorf("generator %d reverse: %v", gi, err)
		}
	}
}

func TestDocCorpusSharedWords(t *testing.T) {
	corpus := DocCorpus()
	if len(corpus) < 4 {
		t.Fatal("corpus too small to exercise structure")
	}
	e := SharedWordIncidence(corpus)
	// Diagonal entries are full vocabularies.
	for _, d := range corpus {
		if v, ok := e.At(d.Name, d.Name); !ok || !v.Equal(d.Words) {
			t.Errorf("E(%s,%s) = %v, want full vocabulary", d.Name, d.Name, v)
		}
	}
	// Symmetry.
	e.Iterate(func(r, c string, v value.Set) {
		back, ok := e.At(c, r)
		if !ok || !back.Equal(v) {
			t.Errorf("E not symmetric at (%s,%s)", r, c)
		}
	})
}

// Section III end-to-end: EᵀE under ∪.∩ lists the words shared by each
// document pair, even though the power-set algebra violates the
// zero-product condition in general — the structure of E avoids every
// violating multiplication.
func TestSectionIIIUnionIntersectCorrelation(t *testing.T) {
	corpus := DocCorpus()
	e := SharedWordIncidence(corpus)
	universe := value.Set{}
	for _, d := range corpus {
		universe = universe.Union(d.Words)
	}
	ops := semiring.PowerSet(universe)
	got, err := assoc.Correlate(e, e, ops, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := SharedWordsExpected(corpus)
	if !got.Equal(want, func(a, b value.Set) bool { return a.Equal(b) }) {
		t.Errorf("∪.∩ correlation mismatch\ngot:\n%s\nwant:\n%s",
			assoc.Format(got, value.Set.String), assoc.Format(want, value.Set.String))
	}
	// And concretely: every entry is the intersection of the two
	// documents' vocabularies.
	byName := map[string]value.Set{}
	for _, d := range corpus {
		byName[d.Name] = d.Words
	}
	got.Iterate(func(x, y string, v value.Set) {
		if !v.Equal(byName[x].Intersect(byName[y])) {
			t.Errorf("A(%s,%s) = %v, want %v", x, y, v, byName[x].Intersect(byName[y]))
		}
	})
}

// multiEdge samples a graph of n vertices where every sampled ordered
// pair carries between 1 and maxMult parallel edges — the stress
// workload for ⊕ aggregation semantics (Lemma II.2 territory).
func multiEdge(r *rand.Rand, n, pairs, maxMult int) *graph.Graph {
	var edges []graph.Edge
	id := 0
	for p := 0; p < pairs; p++ {
		src, dst := vkey(r.Intn(n)), vkey(r.Intn(n))
		mult := 1 + r.Intn(maxMult)
		for c := 0; c < mult; c++ {
			edges = append(edges, graph.Edge{Key: ekey(id), Src: src, Dst: dst})
			id++
		}
	}
	g, err := graph.New(edges)
	if err != nil {
		panic("dataset: generator produced invalid graph: " + err.Error())
	}
	return g
}
