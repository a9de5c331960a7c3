// Package algo implements the "variety of algorithms" the paper's
// opening sentence motivates: graph algorithms expressed as associative
// array multiplication under task-specific ⊕.⊗ operator pairs, running
// on adjacency arrays produced by the incidence construction.
//
// Every algorithm here is a fixpoint (or bounded) iteration of
//
//	frontier' = frontier ⊕.⊗ A
//
// under a different algebra: or.and for reachability (BFS), min.+ for
// shortest paths (Bellman–Ford), max.min for widest paths, min with
// left-projection for label-propagation components, and +.× for
// triangle counting and PageRank — the GraphBLAS catalogue.
//
// There is one engine and two call shapes:
//
//   - Graph runs the iterations as vxm over A's rows — each frontier
//     pushed along its out-edges (sparse.SpMSpVPush, or the same scatter
//     inlined) — over the adjacency's pattern embedded in the square
//     union vertex space (FromArray) — or, for an adjacency held as
//     row-disjoint parts, the shards of a store, the parts' rows copied
//     once each straight into that space (FromPins continues
//     each shard's rows with the edges it has not folded yet as it copies
//     them), the store-wide array never assembled — holding no
//     transpose, with string↔id translation only at the API boundary. A
//     Graph is 4 bytes per stored entry, and 12 once a weighted kernel
//     has laid the values on.
//   - The package-level functions over *assoc.Array (BFSLevels, SSSP,
//     WidestPath, Components, TriangleCount, PageRank) are the one-shot
//     form: build a Graph, call the method, drop the Graph. They answer
//     one question about one array. Hold a Graph instead whenever a
//     second query meets the same array: the build is O(nnz), and the
//     weighted kernels' values and PageRank's 1/outdeg vector are laid on
//     once per Graph, not once per call.
//
// The string-keyed loops over assoc.Mul that the kernels were derived
// from are the differential oracle in reference_test.go. Results are
// BIT-identical to them — the kernels share their fold order (ascending
// in-neighbor id per output, Definition I.3) and their Zero-pruning —
// at one to two orders of magnitude less cost; see BenchmarkAlgo*.
// TransitiveClosure and the degree folds have no kernel form and stay
// on assoc.
//
// Definition I.1 makes key sets finite and totally ordered, so the
// natural answer of a source or rank kernel is a vector over the vertex
// key set in key order. That is what Graph computes and what its
// BFSLevelVector, SSSPVector, WidestPathVector and PageRankVector return
// — a dense slice indexed by position in Vertices(), with -1 or a
// presence mask for unreached vertices, nothing allocated per vertex.
// The map-returning methods (BFSLevels, SSSP, WidestPath, PageRank) are
// presized adapters over them for callers that look vertices up by key.
//
// Graphs built with FromPins read a store's maintained shards and their
// unfolded log suffixes directly, which is how cmd/adjserve answers
// /bfs, /sssp, /widest, /pagerank and /triangles from live pins during
// ingest: internal/serve writes the vector forms to the socket in key
// order, without a map in between.
package algo

import (
	"fmt"
	"math"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// Pattern converts any array to its boolean support: true wherever an
// entry is stored. isZero, if non-nil, additionally drops algebraic
// zeros.
func Pattern[V any](a *assoc.Array[V], isZero func(V) bool) *assoc.Array[bool] {
	p := assoc.Convert(a, func(_, _ string, v V) bool {
		return isZero == nil || !isZero(v)
	})
	return p.Prune(func(b bool) bool { return !b })
}

// BFSLevels computes breadth-first levels from source over the pattern
// of adjacency array a, by frontier expansion under the or.and algebra:
// next = frontier ∨.∧ A. The result maps each reachable vertex to its
// hop count (source = 0). Vertices that are only row keys (pure sinks
// unreachable from source) are absent.
func BFSLevels[V any](a *assoc.Array[V], source string) (map[string]int, error) {
	g, err := FromPattern(a)
	if err != nil {
		return nil, err
	}
	return g.BFSLevels(source)
}

// SSSP computes single-source shortest path distances over the min.+
// algebra by Bellman–Ford relaxation: dist' = dist ⊕ (dist min.+ A),
// iterated to fixpoint (at most |V| rounds). Edge weights are the
// adjacency values; they must be non-negative or at least free of
// negative cycles (a remaining change after |V| rounds reports one).
func SSSP(a *assoc.Array[float64], source string) (map[string]float64, error) {
	g, err := FromArray(a)
	if err != nil {
		return nil, err
	}
	return g.SSSP(source)
}

// WidestPath computes the maximum bottleneck width from source to every
// reachable vertex under the max.min algebra: the largest over paths of
// the smallest edge weight on the path. The source itself has width
// +Inf (the algebra's ⊗-identity: an empty path constrains nothing).
func WidestPath(a *assoc.Array[float64], source string) (map[string]float64, error) {
	g, err := FromArray(a)
	if err != nil {
		return nil, err
	}
	return g.WidestPath(source)
}

// minLeft is the min.select1st pair of the GraphBLAS catalogue: ⊕ = min
// (identity +Inf), ⊗ = left projection (l ⊗ e = l). The left projection
// has no two-sided identity and +Inf only annihilates from the left, so
// this is NOT a Theorem II.1 algebra — it is an algorithmic operator
// pair applied to an existing adjacency array, exactly the distinction
// the paper draws between construction and processing.
func minLeft() semiring.Ops[float64] {
	return semiring.Ops[float64]{
		Name: "min.select1st",
		Add:  math.Min,
		Mul:  func(l, _ float64) float64 { return l },
		Zero: value.PosInf, One: 0,
		Equal: value.Float64Equal,
	}
}

// Components assigns each vertex of the array's pattern a component
// label (the lexicographically smallest vertex key in its weakly
// connected component), via min-label propagation over the symmetrized
// pattern with the min.select1st pair.
func Components[V any](a *assoc.Array[V]) (map[string]string, error) {
	g, err := FromPattern(a)
	if err != nil {
		return nil, err
	}
	return g.Components()
}

// TriangleCount counts the triangles, on three distinct vertices, of an
// undirected graph given as a symmetric adjacency pattern: Σ (L·L) ∘ L
// under +.× with L = tril(A, −1), so self-loops count for nothing.
// Returns an error if the array is not symmetric.
func TriangleCount[V any](a *assoc.Array[V]) (int, error) {
	g, err := FromPattern(a)
	if err != nil {
		return 0, err
	}
	return g.TriangleCount()
}

// TransitiveClosure computes the reachability pattern A⁺ (one or more
// hops) by repeated boolean squaring with union: B' = B ∨ (B ∨.∧ B),
// doubling path lengths each round, so it converges in O(log |V|)
// multiplies.
func TransitiveClosure[V any](a *assoc.Array[V]) (*assoc.Array[bool], error) {
	b := Pattern(a, nil)
	ops := semiring.BoolOrAnd()
	for round := 0; round < 64; round++ {
		sq, err := assoc.Mul(b, b, ops, assoc.MulOptions{})
		if err != nil {
			return nil, err
		}
		next, err := assoc.Add(b, sq, ops)
		if err != nil {
			return nil, err
		}
		if next.Equal(b, func(x, y bool) bool { return x == y }) {
			return b, nil
		}
		b = next
	}
	return nil, fmt.Errorf("algo: transitive closure failed to converge")
}

// OutDegrees returns each row key's ⊕-fold of its entries under +.× —
// the weighted out-degree (entry count when all weights are 1).
func OutDegrees[V any](a *assoc.Array[V]) map[string]float64 {
	ones := assoc.Convert(a, func(_, _ string, _ V) float64 { return 1 })
	return assoc.ReduceRows(ones, func(x, y float64) float64 { return x + y })
}

// InDegrees is OutDegrees of the transpose.
func InDegrees[V any](a *assoc.Array[V]) map[string]float64 {
	return OutDegrees(a.Transpose())
}

// PageRank computes the damped PageRank of the array's pattern with
// uniform teleport, iterating r' = damping·(r ⊕.⊗ P) + (1−damping)/n
// (+ dangling mass redistribution) until the L1 change drops below tol
// or maxIter rounds elapse. Returns the rank vector and the number of
// iterations used.
func PageRank[V any](a *assoc.Array[V], damping, tol float64, maxIter int) (map[string]float64, int, error) {
	g, err := FromPattern(a)
	if err != nil {
		return nil, 0, err
	}
	return g.PageRank(damping, tol, maxIter)
}
