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
// process (scale 10 keeps the assoc arms affordable under -benchtime 1x
// in CI; graphbench -gen algo measures s12/s14).
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

func BenchmarkAlgoBFS(b *testing.B) {
	adj, cg, src := benchAdjacency(b, 10)
	b.Run("assoc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BFSLevels(adj, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cg.BFSLevels(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAlgoSSSP(b *testing.B) {
	adj, cg, src := benchAdjacency(b, 10)
	b.Run("assoc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SSSP(adj, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cg.SSSP(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAlgoPageRank(b *testing.B) {
	adj, cg, _ := benchAdjacency(b, 10)
	const damping, tol, iters = 0.85, 1e-10, 30
	b.Run("assoc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := PageRank(adj, damping, tol, iters); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := cg.PageRank(damping, tol, iters); err != nil {
				b.Fatal(err)
			}
		}
	})
}
