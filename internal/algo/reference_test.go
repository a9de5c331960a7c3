package algo

import (
	"fmt"
	"math"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// The reference forms: each algorithm as the literal iteration
// frontier' = frontier ⊕.⊗ A over string-keyed assoc.Mul. The Graph
// kernels were derived from these loops and must stay BIT-identical to
// them — results, iteration counts, error text; the differential tests
// in csr_test.go hold both the Graph methods and the one-shot package
// functions to them. They cost one to two orders of magnitude more than
// the kernels (BenchmarkAlgo*, arm "reference"), which is why nothing
// outside this package's tests calls them.

// RowVector builds a 1×n associative array with the given row key and
// entries — the frontier/distance vectors of the iterative algorithms.
func RowVector[V any](rowKey string, entries map[string]V) *assoc.Array[V] {
	b := assoc.NewBuilder[V](nil)
	for col, v := range entries {
		b.Set(rowKey, col, v)
	}
	return b.Build()
}

// vectorEntries extracts the single-row array's entries as a map.
func vectorEntries[V any](vec *assoc.Array[V]) map[string]V {
	out := make(map[string]V, vec.NNZ())
	vec.Iterate(func(_, col string, v V) { out[col] = v })
	return out
}

// refVertices is a's vertex set: New over its row and column keys.
func refVertices[V any](a *assoc.Array[V]) *keys.Set {
	return keys.New(append(a.RowKeys().Keys(), a.ColKeys().Keys()...)...)
}

// isVertex reports whether k is a row or a column key of a.
func isVertex[V any](a *assoc.Array[V], k string) bool {
	_, inRows := a.RowKeys().Index(k)
	_, inCols := a.ColKeys().Index(k)
	return inRows || inCols
}

// refBFSLevels computes breadth-first levels from source over the pattern
// of adjacency array a, by frontier expansion under the or.and algebra:
// next = frontier ∨.∧ A. The result maps each reachable vertex to its
// hop count (source = 0). Vertices that are only row keys (pure sinks
// unreachable from source) are absent.
func refBFSLevels[V any](a *assoc.Array[V], source string) (map[string]int, error) {
	if !isVertex(a, source) {
		return nil, fmt.Errorf("algo: source %q is not a vertex of the array", source)
	}
	pattern := Pattern(a, nil)
	ops := semiring.BoolOrAnd()
	levels := map[string]int{source: 0}
	frontier := RowVector("f", map[string]bool{source: true})
	for depth := 1; frontier.NNZ() > 0; depth++ {
		next, err := assoc.Mul(frontier, pattern, ops, assoc.MulOptions{})
		if err != nil {
			return nil, err
		}
		fresh := map[string]bool{}
		next.Iterate(func(_, v string, reached bool) {
			if reached {
				if _, seen := levels[v]; !seen {
					levels[v] = depth
					fresh[v] = true
				}
			}
		})
		if len(fresh) == 0 {
			break
		}
		frontier = RowVector("f", fresh)
	}
	return levels, nil
}

// refSSSP computes single-source shortest path distances over the min.+
// algebra by Bellman–Ford relaxation: dist' = dist ⊕ (dist min.+ A),
// iterated to fixpoint (at most |V| rounds). Edge weights are the
// adjacency values; they must be non-negative or at least free of
// negative cycles (a remaining change after |V| rounds reports one).
func refSSSP(a *assoc.Array[float64], source string) (map[string]float64, error) {
	if !isVertex(a, source) {
		return nil, fmt.Errorf("algo: source %q is not a vertex of the array", source)
	}
	ops := semiring.MinPlus()
	dist := RowVector("d", map[string]float64{source: 0})
	bound := refVertices(a).Len()
	for round := 0; ; round++ {
		relaxed, err := assoc.Mul(dist, a, ops, assoc.MulOptions{})
		if err != nil {
			return nil, err
		}
		next, err := assoc.Add(dist, relaxed, ops) // ⊕ = min over union pattern
		if err != nil {
			return nil, err
		}
		if next.Equal(dist, value.Float64Equal) {
			return vectorEntries(dist), nil
		}
		if round >= bound {
			return nil, fmt.Errorf("algo: no fixpoint after %d rounds (negative cycle?)", bound)
		}
		dist = next
	}
}

// refWidestPath computes the maximum bottleneck width from source to every
// reachable vertex under the max.min algebra: the largest over paths of
// the smallest edge weight on the path. The source itself has width
// +Inf (the algebra's ⊗-identity: an empty path constrains nothing).
func refWidestPath(a *assoc.Array[float64], source string) (map[string]float64, error) {
	if !isVertex(a, source) {
		return nil, fmt.Errorf("algo: source %q is not a vertex of the array", source)
	}
	ops := semiring.MaxMin()
	width := RowVector("w", map[string]float64{source: value.PosInf})
	bound := refVertices(a).Len()
	for round := 0; ; round++ {
		relaxed, err := assoc.Mul(width, a, ops, assoc.MulOptions{})
		if err != nil {
			return nil, err
		}
		next, err := assoc.Add(width, relaxed, ops) // ⊕ = max over union pattern
		if err != nil {
			return nil, err
		}
		if next.Equal(width, value.Float64Equal) {
			return vectorEntries(width), nil
		}
		if round >= bound {
			return nil, fmt.Errorf("algo: widest-path failed to converge in %d rounds", bound)
		}
		width = next
	}
}

// refComponents assigns each vertex of the array's pattern a component
// label (the lexicographically smallest vertex key in its weakly
// connected component), via min-label propagation over the symmetrized
// pattern with the min.select1st pair.
func refComponents[V any](a *assoc.Array[V]) (map[string]string, error) {
	verts := refVertices(a)
	if verts.Len() == 0 {
		return map[string]string{}, nil
	}
	// Symmetrize the pattern with weight 1 edges both ways.
	b := assoc.NewBuilder[float64](nil)
	a.Iterate(func(r, c string, _ V) {
		b.Set(r, c, 1)
		b.Set(c, r, 1)
	})
	for i := 0; i < verts.Len(); i++ { // self-loops keep isolated keys alive
		b.Set(verts.Key(i), verts.Key(i), 1)
	}
	sym := b.Build()

	// Numeric labels = index in sorted vertex order, so the minimum
	// label corresponds to the lexicographically smallest key.
	labels := make(map[string]float64, verts.Len())
	for i := 0; i < verts.Len(); i++ {
		labels[verts.Key(i)] = float64(i)
	}
	vec := RowVector("l", labels)
	ops := minLeft()
	for round := 0; ; round++ {
		prop, err := assoc.Mul(vec, sym, ops, assoc.MulOptions{})
		if err != nil {
			return nil, err
		}
		next, err := assoc.Add(vec, prop, ops) // ⊕ = min
		if err != nil {
			return nil, err
		}
		if next.Equal(vec, value.Float64Equal) {
			break
		}
		if round > verts.Len() {
			return nil, fmt.Errorf("algo: component propagation failed to converge")
		}
		vec = next
	}
	out := make(map[string]string, verts.Len())
	vec.Iterate(func(_, v string, label float64) {
		out[v] = verts.Key(int(label))
	})
	return out, nil
}

// refTriangleCount counts triangles on three distinct vertices of an
// undirected graph given as a symmetric adjacency pattern: the literal
// T = Σ (L ⊕.⊗ L) ∘ L under +.×, with L = tril(A, −1) the entries whose
// row key follows their column key, so each triangle i > k > j is counted
// once, at (i, j) through k. Returns an error if the array is not
// symmetric.
func refTriangleCount[V any](a *assoc.Array[V]) (int, error) {
	p := assoc.Convert(a, func(_, _ string, _ V) float64 { return 1 })
	if !assoc.SamePattern(p, p.Transpose()) {
		return 0, fmt.Errorf("algo: triangle counting requires a symmetric adjacency array")
	}
	var lower []assoc.Triple[float64]
	p.Iterate(func(r, c string, v float64) {
		if r > c {
			lower = append(lower, assoc.Triple[float64]{Row: r, Col: c, Val: v})
		}
	})
	l := assoc.FromTriples(lower, nil)
	ops := semiring.PlusTimes()
	sq, err := assoc.Mul(l, l, ops, assoc.MulOptions{})
	if err != nil {
		return 0, err
	}
	tri, err := assoc.ElementMul(sq, l, ops)
	if err != nil {
		return 0, err
	}
	total, _ := assoc.ReduceAll(tri, ops.Add)
	return int(total), nil
}

// refPageRank computes the damped PageRank of the array's pattern with
// uniform teleport, iterating r' = damping·(r ⊕.⊗ P) + (1−damping)/n
// (+ dangling mass redistribution) until the L1 change drops below tol
// or maxIter rounds elapse. Returns the rank vector and the number of
// iterations used.
func refPageRank[V any](a *assoc.Array[V], damping, tol float64, maxIter int) (map[string]float64, int, error) {
	if damping <= 0 || damping >= 1 {
		return nil, 0, fmt.Errorf("algo: damping must be in (0,1), got %v", damping)
	}
	verts := refVertices(a)
	n := verts.Len()
	if n == 0 {
		return map[string]float64{}, 0, nil
	}
	// Row-normalized transition array P over the union vertex space.
	outDeg := OutDegrees(a)
	b := assoc.NewBuilder[float64](nil)
	a.Iterate(func(r, c string, _ V) {
		b.Set(r, c, 1/outDeg[r])
	})
	p := b.Build()
	pFull, err := p.Reindex(verts, verts)
	if err != nil {
		return nil, 0, err
	}

	rank := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		rank[verts.Key(i)] = 1 / float64(n)
	}
	ops := semiring.PlusTimes()
	for iter := 1; iter <= maxIter; iter++ {
		vec, err := RowVector("r", rank).Reindex(RowVector("r", rank).RowKeys(), verts)
		if err != nil {
			return nil, 0, err
		}
		flowed, err := assoc.Mul(vec, pFull, ops, assoc.MulOptions{})
		if err != nil {
			return nil, 0, err
		}
		flow := vectorEntries(flowed)
		// Dangling vertices leak their rank; redistribute uniformly. The
		// sum runs in vertex-key order so the float fold is deterministic
		// (map iteration order would make reruns differ in final bits).
		dangling := 0.0
		for i := 0; i < n; i++ {
			v := verts.Key(i)
			if _, hasOut := outDeg[v]; !hasOut {
				dangling += rank[v]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		next := make(map[string]float64, n)
		delta := 0.0
		for i := 0; i < n; i++ {
			v := verts.Key(i)
			nv := base + damping*flow[v]
			delta += math.Abs(nv - rank[v])
			next[v] = nv
		}
		rank = next
		if delta < tol {
			return rank, iter, nil
		}
	}
	return rank, maxIter, nil
}
