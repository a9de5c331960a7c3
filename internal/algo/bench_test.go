package algo

import (
	"math/rand"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
)

// benchAdjacency builds an rmat adjacency array once per benchmark
// process (scale 10 keeps the reference arms affordable under
// -benchtime 1x in CI). Every BenchmarkAlgo* has three arms: "reference"
// is the assoc.Mul loop of reference_test.go, "graph" a method on a
// Graph built once outside the timer, "oneshot" the package-level
// function — the same method with the Graph build inside the timer.
func benchAdjacency(b testing.TB, scale int) (*assoc.Array[float64], *Graph, string) {
	b.Helper()
	g := dataset.RMAT(rand.New(rand.NewSource(1)), scale, 8)
	one := func(graph.Edge) float64 { return 1 }
	eout, ein, err := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one})
	if err != nil {
		b.Fatal(err)
	}
	adj, err := assoc.Correlate(eout, ein, semiring.PlusTimes(), assoc.MulOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cg, err := FromArray(adj)
	if err != nil {
		b.Fatal(err)
	}
	// Deterministic high-degree source: the busiest row key.
	src := adj.RowKeys().Key(0)
	best := -1
	for i := 0; i < adj.RowKeys().Len(); i++ {
		if d := adj.Matrix().RowNNZ(i); d > best {
			best, src = d, adj.RowKeys().Key(i)
		}
	}
	return adj, cg, src
}

// arm times one call shape of an algorithm as a sub-benchmark.
func arm(b *testing.B, name string, run func() error) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAlgoBFS(b *testing.B) {
	adj, cg, src := benchAdjacency(b, 10)
	arm(b, "reference", func() error { _, err := refBFSLevels(adj, src); return err })
	arm(b, "graph", func() error { _, err := cg.BFSLevels(src); return err })
	arm(b, "oneshot", func() error { _, err := BFSLevels(adj, src); return err })
}

func BenchmarkAlgoSSSP(b *testing.B) {
	adj, cg, src := benchAdjacency(b, 10)
	arm(b, "reference", func() error { _, err := refSSSP(adj, src); return err })
	arm(b, "graph", func() error { _, err := cg.SSSP(src); return err })
	arm(b, "oneshot", func() error { _, err := SSSP(adj, src); return err })
}

func BenchmarkAlgoPageRank(b *testing.B) {
	adj, cg, _ := benchAdjacency(b, 10)
	const damping, tol, iters = 0.85, 1e-10, 30
	arm(b, "reference", func() error { _, _, err := refPageRank(adj, damping, tol, iters); return err })
	arm(b, "graph", func() error { _, _, err := cg.PageRank(damping, tol, iters); return err })
	arm(b, "oneshot", func() error { _, _, err := PageRank(adj, damping, tol, iters); return err })
}

// BenchmarkFromArrays is the Graph build of a new epoch vector whose
// shards have no unfolded edges (FromPins over such pins is this build):
// the gather of two row-disjoint parts into the vertex space as a
// pattern, alone ("build") and followed by the first structural query on
// it, a BFS ("build+bfs") or a 20-iteration PageRank ("build+pagerank").
func BenchmarkFromArrays(b *testing.B) {
	adj, _, src := benchAdjacency(b, 12)
	parts := dealRows(adj, 2)
	arm(b, "build", func() error { _, err := fromArrays(parts); return err })
	arm(b, "build+bfs", func() error {
		g, err := fromArrays(parts)
		if err != nil {
			return err
		}
		_, err = g.BFSLevelVector(src)
		return err
	})
	arm(b, "build+pagerank", func() error {
		g, err := fromArrays(parts)
		if err != nil {
			return err
		}
		_, _, err = g.PageRankVector(0.85, 1e-9, 20)
		return err
	})
}

// dealRows deals adj's rows out to k arrays, row i to part i mod k, each
// over only the keys it stores — the shape of a store's pinned shards.
func dealRows(adj *assoc.Array[float64], k int) []*assoc.Array[float64] {
	dealt := make([][]assoc.Triple[float64], k)
	for _, tr := range adj.Triples() {
		row, _ := adj.RowKeys().Index(tr.Row)
		dealt[row%k] = append(dealt[row%k], tr)
	}
	parts := make([]*assoc.Array[float64], k)
	for p := range parts {
		parts[p] = assoc.FromTriples(dealt[p], nil)
	}
	return parts
}
