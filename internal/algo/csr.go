package algo

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
	"adjarray/internal/stream"
	"adjarray/internal/value"
)

// Graph is the engine every algorithm in this package runs on: an
// adjacency array's sparse matrix — or the matrices of its row-disjoint
// parts, FromArrays — embedded into the SQUARE union vertex space
// (rows ∪ cols), with vertices as integer ids and string keys resolved
// only at the API boundary. The package functions over *assoc.Array
// build one, call the method of the same name and drop it.
//
// The source and rank kernels answer with VECTORS over Vertices(), in
// key order (BFSLevelVector, SSSPVector, WidestPathVector,
// PageRankVector) — Definition I.1's key sets are totally ordered, so a
// dense slice indexed by vertex position is the answer, and nothing is
// allocated per vertex. The map-returning methods of the same names are
// adapters over them for callers that want to look vertices up by key.
//
// A Graph is immutable and safe for concurrent use; the transpose
// needed by the pull kernels is built lazily, once, on first use — as a
// pattern, 4 bytes per stored entry, which is all BFS, PageRank and
// TriangleCount read. Only the weighted pull (SSSP, WidestPath) needs
// Aᵀ's values, and lays them onto that pattern on its first use: a Graph
// costs 12 + 4 (+ 8 once a weighted pull ran) bytes per entry.
type Graph struct {
	verts *keys.Set
	adj   *sparse.CSR[float64]

	trOnce sync.Once
	tr     *sparse.Pattern

	trValOnce sync.Once
	trVal     *sparse.CSR[float64]

	invOnce sync.Once
	invDeg  []float64 // PageRank's 1/outdeg(u); 0 marks a dangling vertex
}

// ErrNotVertex is wrapped by every source-taking algorithm when the
// requested source key is absent — callers (the adjserve endpoints)
// branch on it with errors.Is instead of matching message text.
var ErrNotVertex = errors.New("is not a vertex of the array")

// FromArray builds a Graph from an adjacency array, keeping the stored
// values as edge weights. Embedding into the union vertex space copies
// index structure but never values; when the array is already square
// over one key set, its matrix is used as-is.
func FromArray(a *assoc.Array[float64]) (*Graph, error) {
	return FromArrays([]*assoc.Array[float64]{a})
}

// FromArrays builds a Graph from an adjacency array held as row-disjoint
// parts — the pinned shards of a store partitioned by source vertex. The
// vertex set is the union of every part's row and column keys, and each
// part's stored rows are copied once, straight into that square space
// (assoc.ConcatRowsSquare): the store-wide rows × cols array is never
// assembled on the way. Parts that store the same row are refused, the
// error naming the row and the parts.
func FromArrays(parts []*assoc.Array[float64]) (*Graph, error) {
	sq, err := assoc.ConcatRowsSquare(parts)
	if err != nil {
		return nil, fmt.Errorf("algo: gather into vertex space: %w", err)
	}
	return &Graph{verts: sq.RowKeys(), adj: sq.Matrix()}, nil
}

// FromPattern builds a Graph from any array's pattern with weight 1 per
// stored entry — the form the structural algorithms (BFS, Components,
// TriangleCount, PageRank) consume.
func FromPattern[V any](a *assoc.Array[V]) (*Graph, error) {
	ones := assoc.Convert(a, func(_, _ string, _ V) float64 { return 1 })
	return FromArray(ones)
}

// FromSnapshot builds a Graph from a live stream snapshot's adjacency —
// the serving path: the snapshot is O(1) to take and immutable, so the
// Graph reads the maintained CSR directly while ingest continues.
func FromSnapshot(s stream.Snapshot[float64]) (*Graph, error) {
	return FromArray(s.Adjacency)
}

// Vertices returns the graph's ordered vertex key set.
func (g *Graph) Vertices() *keys.Set { return g.verts }

// NumEdges returns the number of stored adjacency entries.
func (g *Graph) NumEdges() int { return g.adj.NNZ() }

// transpose returns the cached pattern of Aᵀ, building it on first use
// (the pull kernels and PageRank gather along in-edges).
func (g *Graph) transpose() *sparse.Pattern {
	g.trOnce.Do(func() { g.tr = g.adj.Pattern().Transpose() })
	return g.tr
}

// weightedTranspose returns the cached Aᵀ with its values, on the
// pattern transpose's own index arrays.
func (g *Graph) weightedTranspose() *sparse.CSR[float64] {
	g.trValOnce.Do(func() {
		t, err := g.adj.TransposeOnto(g.transpose())
		if err != nil {
			panic("algo: " + err.Error()) // the pattern is adj's own
		}
		g.trVal = t
	})
	return g.trVal
}

func (g *Graph) vertex(source string) (int32, error) {
	id, ok := g.verts.IndexSorted(source)
	if !ok {
		return 0, fmt.Errorf("algo: source %q %w", source, ErrNotVertex)
	}
	return int32(id), nil
}

// pullAlpha tunes the push→pull switch: a step runs pull once the edges
// leaving the frontier exceed nnz/pullAlpha, i.e. a push would touch a
// comparable share of the matrix anyway and one sequential transpose
// scan wins over scattered writes.
const pullAlpha = 8

// frontierEdges sums the out-degrees of the frontier rows.
func (g *Graph) frontierEdges(ids []int32) int {
	e := 0
	for _, u := range ids {
		e += g.adj.RowNNZ(int(u))
	}
	return e
}

// BFSLevels returns the hop counts of BFSLevelVector as a map over the
// reached vertices.
func (g *Graph) BFSLevels(source string) (map[string]int, error) {
	level, err := g.BFSLevelVector(source)
	if err != nil {
		return nil, err
	}
	reached := 0
	for _, l := range level {
		if l >= 0 {
			reached++
		}
	}
	out := make(map[string]int, reached)
	for i, l := range level {
		if l >= 0 {
			out[g.verts.Key(i)] = l
		}
	}
	return out, nil
}

// BFSLevelVector returns breadth-first hop counts from source over the
// adjacency pattern, indexed by position in Vertices(); -1 marks an
// unreached vertex. Direction-optimizing — sparse frontiers push along
// out-edges, dense frontiers pull along in-edges with early exit per
// vertex.
func (g *Graph) BFSLevelVector(source string) ([]int, error) {
	src, err := g.vertex(source)
	if err != nil {
		return nil, err
	}
	n := g.verts.Len()
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := []int32{src}
	var next []int32
	for depth := 1; len(frontier) > 0; depth++ {
		next = next[:0]
		if g.frontierEdges(frontier)*pullAlpha > g.adj.NNZ() {
			// Pull: every undiscovered vertex scans its in-neighbors for a
			// member of the current frontier; first hit wins.
			t := g.transpose()
			for v := int32(0); int(v) < n; v++ {
				if level[v] >= 0 {
					continue
				}
				cols, _ := t.Row(int(v))
				for _, u := range cols {
					if level[u] == depth-1 {
						level[v] = depth
						next = append(next, v)
						break
					}
				}
			}
		} else {
			for _, u := range frontier {
				cols, _ := g.adj.Row(int(u))
				for _, v := range cols {
					if level[v] < 0 {
						level[v] = depth
						next = append(next, v)
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	return level, nil
}

// relaxToFixpoint runs the shared frontier-relaxation loop of the
// weighted algorithms: starting from a single seeded value, it iterates
// dist' = dist ⊕ (dist ⊕.⊗ A) to fixpoint, keeping the active set
// sparse. Contributions to an output fold in ascending in-neighbor
// order (the kernels' contract), folds equal to the algebra's Zero are
// pruned, and a merge leaves a stored value in place unless ⊕ moves it
// — exactly the semantics of the assoc reference loop
// (reference_test.go), so converged results are bit-identical. Returns
// the dense value array and its presence mask, or an error after bound
// unconverged rounds.
func (g *Graph) relaxToFixpoint(src int32, seed float64, ops semiring.Ops[float64], bound int, diverged string) ([]float64, []bool, error) {
	n := g.verts.Len()
	val := make([]float64, n)
	has := make([]bool, n)
	val[src], has[src] = seed, true

	frontier := []int32{src}
	frontVals := []float64{seed}
	frontMask := make([]bool, n)
	acc := make([]float64, n)
	hit := make([]bool, n)
	var touched []int32
	nnz := g.adj.NNZ()
	for round := 0; len(frontier) > 0; round++ {
		if round > bound {
			return nil, nil, fmt.Errorf("algo: %s", diverged)
		}
		touched = touched[:0]
		if g.frontierEdges(frontier)*pullAlpha > nnz {
			for _, u := range frontier {
				frontMask[u] = true
			}
			touched = sparse.SpMVPull(g.weightedTranspose(), val, frontMask, ops.Add, ops.Mul, acc, hit, touched)
			for _, u := range frontier {
				frontMask[u] = false
			}
		} else {
			touched = sparse.SpMSpVPush(g.adj, frontier, frontVals, ops.Add, ops.Mul, acc, hit, touched)
			// Push discovers outputs in scatter order; the next frontier
			// must be ascending to keep the following round's fold order.
			sortIDs(touched)
		}
		frontier = frontier[:0]
		frontVals = frontVals[:0]
		for _, v := range touched {
			f := acc[v]
			hit[v] = false
			if ops.IsZero(f) {
				continue // the engine's prune: a Zero fold is no entry
			}
			if !has[v] {
				has[v] = true
				val[v] = f
			} else {
				merged := ops.Add(val[v], f)
				if ops.Equal(merged, val[v]) {
					continue
				}
				val[v] = merged
				if ops.IsZero(merged) {
					// ⊕ produced the algebra's Zero: the sparse reference
					// prunes the entry (unreachable for the registry pairs,
					// whose ⊕ selects an operand).
					has[v] = false
					continue
				}
			}
			frontier = append(frontier, v)
			frontVals = append(frontVals, val[v])
		}
	}
	return val, has, nil
}

// sortIDs orders a touched-id list ascending: insertion sort while the
// list is small (no call overhead on the hot relaxation path),
// slices.Sort once a dense round would make insertion sort quadratic.
func sortIDs(xs []int32) {
	if len(xs) > 64 {
		slices.Sort(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// extract converts a dense result vector back to the string-keyed map.
func (g *Graph) extract(val []float64, has []bool) map[string]float64 {
	present := 0
	for _, ok := range has {
		if ok {
			present++
		}
	}
	out := make(map[string]float64, present)
	for i, ok := range has {
		if ok {
			out[g.verts.Key(i)] = val[i]
		}
	}
	return out
}

// SSSP is the CSR-native single-source shortest-path distance map under
// min.+: SSSPVector's reached entries by key.
func (g *Graph) SSSP(source string) (map[string]float64, error) {
	val, has, err := g.SSSPVector(source)
	if err != nil {
		return nil, err
	}
	return g.extract(val, has), nil
}

// SSSPVector returns shortest-path distances from source under min.+,
// indexed by position in Vertices(); has[i] reports whether vertex i is
// reached. Bellman–Ford with a sparse active set instead of full-vector
// products.
func (g *Graph) SSSPVector(source string) (dist []float64, has []bool, err error) {
	src, err := g.vertex(source)
	if err != nil {
		return nil, nil, err
	}
	return g.relaxToFixpoint(src, 0, semiring.MinPlus(), g.verts.Len(),
		fmt.Sprintf("no fixpoint after %d rounds (negative cycle?)", g.verts.Len()))
}

// WidestPath is the CSR-native maximum-bottleneck-width map under
// max.min: WidestPathVector's reached entries by key.
func (g *Graph) WidestPath(source string) (map[string]float64, error) {
	val, has, err := g.WidestPathVector(source)
	if err != nil {
		return nil, err
	}
	return g.extract(val, has), nil
}

// WidestPathVector returns maximum bottleneck widths from source under
// max.min, in SSSPVector's form; the source seeds at +Inf (an empty path
// constrains nothing).
func (g *Graph) WidestPathVector(source string) (width []float64, has []bool, err error) {
	src, err := g.vertex(source)
	if err != nil {
		return nil, nil, err
	}
	return g.relaxToFixpoint(src, value.PosInf, semiring.MaxMin(), g.verts.Len(),
		fmt.Sprintf("widest-path failed to converge in %d rounds", g.verts.Len()))
}

// Components is the CSR-native weakly-connected-components labeling:
// min-label propagation with a sparse changed set over the symmetrized
// pattern, under the same min.select1st operator pair as the reference.
func (g *Graph) Components() (map[string]string, error) {
	n := g.verts.Len()
	if n == 0 {
		return map[string]string{}, nil
	}
	// Symmetrized pattern S = pattern(A) ∪ pattern(Aᵀ), weight 1: the ⊗
	// of min.select1st projects the label through, so values are inert.
	patternOps := semiring.Ops[float64]{
		Name: "pattern∪",
		Add:  func(float64, float64) float64 { return 1 },
		Mul:  func(float64, float64) float64 { return 1 },
		Zero: 0, One: 1,
		Equal: func(a, b float64) bool { return a == b },
	}
	ones := onesLike(g.adj)
	sym, err := sparse.EWiseAdd(ones, ones.Transpose(), patternOps)
	if err != nil {
		return nil, err
	}

	ops := minLeft()
	label := make([]float64, n)
	frontier := make([]int32, n)
	frontVals := make([]float64, n)
	for i := range label {
		label[i] = float64(i)
		frontier[i] = int32(i)
		frontVals[i] = label[i]
	}
	acc := make([]float64, n)
	hit := make([]bool, n)
	var touched []int32
	for round := 0; len(frontier) > 0; round++ {
		if round > n {
			return nil, fmt.Errorf("algo: component propagation failed to converge")
		}
		touched = sparse.SpMSpVPush(sym, frontier, frontVals, ops.Add, ops.Mul, acc, hit, touched[:0])
		sortIDs(touched)
		frontier = frontier[:0]
		frontVals = frontVals[:0]
		for _, v := range touched {
			f := acc[v]
			hit[v] = false
			if f < label[v] {
				label[v] = f
				frontier = append(frontier, v)
				frontVals = append(frontVals, f)
			}
		}
	}
	out := make(map[string]string, n)
	for i := range label {
		out[g.verts.Key(i)] = g.verts.Key(int(label[i]))
	}
	return out, nil
}

// onesLike copies a matrix's pattern with every stored value 1.
func onesLike(m *sparse.CSR[float64]) *sparse.CSR[float64] {
	return m.Map(func(_, _ int, _ float64) float64 { return 1 })
}

// TriangleCount is the CSR-native triangle count: per stored edge (i,j)
// of the symmetric pattern, the wedge count |N(i) ∩ N(j)| by sorted
// intersection — the masked (A·A) ∘ A of the reference without
// materializing products — summed and divided by 6. Only index
// structure is read, so the symmetry check reuses the Graph's cached
// pattern transpose and no value is copied.
func (g *Graph) TriangleCount() (int, error) {
	if !sparse.SamePattern(g.adj, g.transpose()) {
		return 0, fmt.Errorf("algo: triangle counting requires a symmetric adjacency array")
	}
	var wedges int64
	n := g.verts.Len()
	for i := 0; i < n; i++ {
		ri, _ := g.adj.Row(i)
		for _, j := range ri {
			rj, _ := g.adj.Row(int(j))
			wedges += intersectCount(ri, rj)
		}
	}
	if wedges%6 != 0 {
		return 0, fmt.Errorf("algo: wedge count %v not divisible by 6 (self-loops present?)", wedges)
	}
	return int(wedges / 6), nil
}

// intersectCount counts common elements of two ascending id slices.
func intersectCount(a, b []int32) int64 {
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// PageRank is the CSR-native damped PageRank as a map: PageRankVector's
// ranks by key. Returns the rank map and iterations used.
func (g *Graph) PageRank(damping, tol float64, maxIter int) (map[string]float64, int, error) {
	rank, used, err := g.PageRankVector(damping, tol, maxIter)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64, len(rank))
	for i, r := range rank {
		out[g.verts.Key(i)] = r
	}
	return out, used, nil
}

// PageRankVector is damped PageRank with uniform teleport and
// dangling-mass redistribution, indexed by position in Vertices(): one
// dense pull over the transpose per iteration, numerically identical to
// the reference (same ascending in-neighbor fold, same vertex-order
// reductions). Returns the ranks and iterations used.
func (g *Graph) PageRankVector(damping, tol float64, maxIter int) ([]float64, int, error) {
	if damping <= 0 || damping >= 1 {
		return nil, 0, fmt.Errorf("algo: damping must be in (0,1), got %v", damping)
	}
	n := g.verts.Len()
	if n == 0 {
		return []float64{}, 0, nil
	}
	// Pᵀ(v, u) = 1/outdeg(u) depends on the column alone, so the
	// normalized matrix is the transpose's pattern plus one vector —
	// built once per Graph, so a burst of PageRank queries against one
	// cached snapshot epoch pays it once. Scaling rank by it before the
	// pull forms the products rank[u]·Pᵀ(v, u) the reference forms.
	g.invOnce.Do(func() {
		g.invDeg = make([]float64, n)
		for u := range g.invDeg {
			if d := g.adj.RowNNZ(u); d > 0 {
				g.invDeg[u] = 1 / float64(d)
			}
		}
	})
	inv, t := g.invDeg, g.transpose()

	rank := make([]float64, n)
	scaled := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for iter := 1; iter <= maxIter; iter++ {
		dangling := 0.0
		for u, r := range rank {
			if inv[u] == 0 {
				dangling += r
			} else {
				scaled[u] = r * inv[u]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		delta := 0.0
		for v := 0; v < n; v++ {
			flow := 0.0
			cols, _ := t.Row(v)
			for _, u := range cols {
				flow += scaled[u]
			}
			nv := base + damping*flow
			delta += math.Abs(nv - rank[v])
			rank[v] = nv
		}
		if delta < tol {
			return rank, iter, nil
		}
	}
	return rank, maxIter, nil
}
