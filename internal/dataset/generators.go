package dataset

import (
	"fmt"
	"math/rand"

	"adjarray/internal/graph"
)

// Synthetic graph workloads for the theorem and scaling experiments.
// All generators are deterministic given the *rand.Rand seed, so
// experiments are reproducible run to run.

// vkey formats a vertex key with fixed width so key order matches
// numeric order.
func vkey(i int) string { return fmt.Sprintf("v%06d", i) }

// ekey formats an edge key with fixed width.
func ekey(i int) string { return fmt.Sprintf("e%08d", i) }

// ErdosRenyi samples a G(n, p) directed graph (self-loops allowed,
// at most one edge per ordered pair).
func ErdosRenyi(r *rand.Rand, n int, p float64) *graph.Graph {
	var edges []graph.Edge
	id := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < p {
				edges = append(edges, graph.Edge{Key: ekey(id), Src: vkey(i), Dst: vkey(j)})
				id++
			}
		}
	}
	if len(edges) == 0 { // keep generated graphs non-degenerate
		edges = append(edges, graph.Edge{Key: ekey(0), Src: vkey(0), Dst: vkey(n - 1)})
	}
	g, err := graph.New(edges)
	if err != nil {
		panic("dataset: generator produced invalid graph: " + err.Error())
	}
	return g
}

// RMAT samples a power-law (Graph500-style recursive-matrix) multigraph
// with 2^scale vertices and edgeFactor·2^scale edges using the standard
// partition probabilities a=0.57, b=0.19, c=0.19, d=0.05. Duplicate
// (src,dst) pairs are kept as genuinely parallel edges — exactly the
// multi-edge structure whose aggregation the ⊕ operator governs.
func RMAT(r *rand.Rand, scale, edgeFactor int) *graph.Graph {
	n := 1 << scale
	m := edgeFactor * n
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([]graph.Edge, 0, m)
	for e := 0; e < m; e++ {
		src, dst := 0, 0
		for bit := n >> 1; bit >= 1; bit >>= 1 {
			p := r.Float64()
			switch {
			case p < a: // upper-left
			case p < a+b: // upper-right
				dst += bit
			case p < a+b+c: // lower-left
				src += bit
			default: // lower-right
				src += bit
				dst += bit
			}
		}
		edges = append(edges, graph.Edge{Key: ekey(e), Src: vkey(src), Dst: vkey(dst)})
	}
	g, err := graph.New(edges)
	if err != nil {
		panic("dataset: generator produced invalid graph: " + err.Error())
	}
	return g
}

// Bipartite samples m edges from nLeft source vertices ("l…") to nRight
// target vertices ("r…") — the incidence shape of exploded database
// tables like Figure 1 (records × field values).
func Bipartite(r *rand.Rand, nLeft, nRight, m int) *graph.Graph {
	edges := make([]graph.Edge, m)
	for e := 0; e < m; e++ {
		edges[e] = graph.Edge{
			Key: ekey(e),
			Src: fmt.Sprintf("l%06d", r.Intn(nLeft)),
			Dst: fmt.Sprintf("r%06d", r.Intn(nRight)),
		}
	}
	g, err := graph.New(edges)
	if err != nil {
		panic("dataset: generator produced invalid graph: " + err.Error())
	}
	return g
}
