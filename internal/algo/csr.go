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
// parts, each continued by the edges its shard has not folded
// yet, FromPins — embedded into the SQUARE union vertex space (rows ∪
// cols), with vertices as integer ids and string keys resolved only at
// the API boundary. The package functions over *assoc.Array build one,
// call the method of the same name and drop it.
//
// The source and rank kernels answer with VECTORS over Vertices(), in
// key order (BFSLevelVector, SSSPVector, WidestPathVector,
// PageRankVector) — Definition I.1's key sets are totally ordered, so a
// dense slice indexed by vertex position is the answer, and nothing is
// allocated per vertex. The map-returning methods of the same names are
// adapters over them for callers that want to look vertices up by key.
//
// A Graph is immutable and safe for concurrent use. It is built as a
// PATTERN, 4 bytes per stored entry, and holds no transpose: BFS, SSSP,
// WidestPath and PageRank push along out-edges and TriangleCount probes
// rows (Components alone symmetrizes, per call). Only the weighted
// kernels (SSSP, WidestPath) and IterateUntil read values, and lay them
// on at their first use, onto the pattern from the arrays the Graph was
// built from (8 B per entry; shared outright when one array needs no
// fold): a Graph costs 4 bytes per entry, 12 once values were read.
type Graph struct {
	verts *keys.Set
	adj   *sparse.Pattern
	src   *sparse.Gather[float64] // what adj was built from, until its values are laid from it

	valOnce sync.Once
	val     *sparse.CSR[float64]

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
	return build([]*assoc.Array[float64]{a}, nil, semiring.Ops[float64]{})
}

// FromPins builds a Graph from a store's point pins at one epoch vector
// (stream.Store.PointPin): each shard's main, continued by the log suffix
// it has not folded — each cell's products folded onto main's value in
// log order, a fold equal to Zero pruned, as the shard's own fold would
// (PointSnapshot.Delta) — and placed, with the vertices only the suffix
// has met, in the square space, in one pass. It is the Graph build makes
// of the shards' folded arrays alone, bit for bit and for any ⊕, with
// no shard folded and no main copied on the way.
func FromPins(pins []stream.PointSnapshot[float64]) (*Graph, error) {
	parts := make([]*assoc.Array[float64], len(pins))
	deltas := make([]stream.Delta[float64], len(pins))
	var ops semiring.Ops[float64]
	for k, p := range pins {
		parts[k], deltas[k] = p.Main(), p.Delta()
		if len(deltas[k].Row) > 0 {
			ops = deltas[k].Ops
		}
	}
	return build(parts, deltas, ops)
}

// build lays an adjacency array held as row-disjoint parts, each
// continued by its delta when deltas holds one with edges, into the
// square space over every key they hold and every key the deltas bring.
// Each part's stored rows are copied once, as a pattern, straight into
// that space (sparse.Gather): the store-wide rows × cols array is never
// assembled on the way. Parts that store the same row are refused, the
// error naming the row and the parts.
func build(parts []*assoc.Array[float64], deltas []stream.Delta[float64], ops semiring.Ops[float64]) (*Graph, error) {
	continued := func(k int) bool { return k < len(deltas) && len(deltas[k].Row) > 0 }
	// Part k's row keys are sets[at[k]], its column keys the next, and the
	// keys only its delta holds the one after that, when it has one.
	sets, at := make([]*keys.Set, 0, 3*len(parts)), make([]int, len(parts))
	for k, p := range parts {
		at[k] = len(sets)
		sets = append(sets, p.RowKeys(), p.ColKeys())
		if continued(k) {
			sets = append(sets, deltas[k].Fresh)
		}
	}
	verts, pos, err := keys.UnionAll(sets)
	if err != nil {
		return nil, fmt.Errorf("algo: vertex keys: %w", err)
	}
	n := verts.Len()
	src := &sparse.Gather[float64]{
		Parts: make([]*sparse.CSR[float64], len(parts)), RowPos: make([][]int32, len(parts)), ColPos: make([][]int32, len(parts)),
		Ops: ops, Rows: n, Cols: n,
	}
	for k, p := range parts {
		src.Parts[k], src.RowPos[k], src.ColPos[k] = p.Matrix(), pos[at[k]], pos[at[k]+1]
		if !continued(k) {
			continue
		}
		if src.Deltas == nil {
			src.Deltas = make([]*sparse.CSR[float64], len(parts))
		}
		d, freshPos := deltas[k], pos[at[k]+2]
		row := place(d.Row, p.RowKeys().Len(), src.RowPos[k], freshPos)
		col := place(d.Col, p.ColKeys().Len(), src.ColPos[k], freshPos)
		if src.Deltas[k], err = sparse.GroupUnitRows(n, n, row, col, d.Prod, nil, ops, nil); err != nil {
			return nil, fmt.Errorf("algo: part %d's delta: %w", k, err)
		}
	}
	adj, err := src.Pattern()
	if err != nil {
		var rc *sparse.RowConflictError
		if errors.As(err, &rc) {
			return nil, fmt.Errorf("algo: gather into vertex space: row %q is stored by part %d and by part %d, and parts must own disjoint rows: %w",
				verts.Key(rc.Row), rc.First, rc.Second, err)
		}
		return nil, fmt.Errorf("algo: gather into vertex space: %w", err)
	}
	g := &Graph{verts: verts, adj: adj, src: src}
	if len(parts) == 1 && src.Deltas == nil {
		g.weighted() // one array with nothing to fold shares its values: no gather to keep
	}
	return g, nil
}

// place maps a delta's positions — below past in its main's keys, from
// there on in its fresh keys — into the square space, through the two
// maps the union returned (nil: the identity).
func place(ids []int32, past int, mainPos, freshPos []int32) []int32 {
	out := make([]int32, len(ids))
	for e, x := range ids {
		switch i := int(x) - past; {
		case i < 0 && mainPos != nil:
			out[e] = mainPos[x]
		case i < 0:
			out[e] = x
		case freshPos != nil:
			out[e] = freshPos[i]
		default:
			out[e] = int32(i)
		}
	}
	return out
}

// FromPattern builds a Graph from any array's pattern with weight 1 per
// stored entry — the form the structural algorithms (BFS, Components,
// TriangleCount, PageRank) consume.
func FromPattern[V any](a *assoc.Array[V]) (*Graph, error) {
	ones := assoc.Convert(a, func(_, _ string, _ V) float64 { return 1 })
	return FromArray(ones)
}

// Vertices returns the graph's ordered vertex key set.
func (g *Graph) Vertices() *keys.Set { return g.verts }

// NumEdges returns the number of stored adjacency entries.
func (g *Graph) NumEdges() int { return g.adj.NNZ() }

// IterateUntil visits the stored entries, values laid on, in row-major
// key order until fn returns false; it reports whether the sweep ended.
func (g *Graph) IterateUntil(fn func(row, col string, v float64) bool) bool {
	return g.weighted().IterateUntil(func(i, j int, v float64) bool {
		return fn(g.verts.Key(i), g.verts.Key(j), v)
	})
}

// weighted returns A with its values, on the pattern's own index arrays:
// laid from the arrays the Graph was built from on first use.
func (g *Graph) weighted() *sparse.CSR[float64] {
	g.valOnce.Do(func() {
		a, err := g.src.Onto(g.adj)
		if err != nil {
			panic("algo: " + err.Error()) // the pattern is the gather's own
		}
		g.val, g.src = a, nil // the gather's maps and deltas are needed no more
	})
	return g.val
}

func (g *Graph) vertex(source string) (int32, error) {
	id, ok := g.verts.Index(source)
	if !ok {
		return 0, fmt.Errorf("algo: source %q %w", source, ErrNotVertex)
	}
	return int32(id), nil
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
// unreached vertex. Each level pushes the frontier along its out-edges.
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
		for _, u := range frontier {
			cols, _ := g.adj.Row(int(u))
			for _, v := range cols {
				if level[v] < 0 {
					level[v] = depth
					next = append(next, v)
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
// sparse. Each round pushes the frontier along its out-edges
// (sparse.SpMSpVPush), and the frontier is kept ascending, so
// contributions to an output fold in ascending in-neighbor order; folds
// equal to the algebra's Zero are pruned, and a merge leaves a stored
// value in place unless ⊕ moves it — exactly the semantics of the assoc
// reference loop (reference_test.go), so converged results are
// bit-identical. Returns the dense value array and its presence mask, or
// an error after bound unconverged rounds.
func (g *Graph) relaxToFixpoint(src int32, seed float64, ops semiring.Ops[float64], bound int, diverged string) ([]float64, []bool, error) {
	n := g.verts.Len()
	val := make([]float64, n)
	has := make([]bool, n)
	val[src], has[src] = seed, true

	frontier := []int32{src}
	frontVals := []float64{seed}
	a := g.weighted()
	acc := make([]float64, n)
	hit := make([]bool, n)
	var touched []int32
	for round := 0; len(frontier) > 0; round++ {
		if round > bound {
			return nil, nil, fmt.Errorf("algo: %s", diverged)
		}
		touched = sparse.SpMSpVPush(a, frontier, frontVals, ops.Add, ops.Mul, acc, hit, touched[:0])
		// Push discovers outputs in scatter order; the next frontier
		// must be ascending to keep the following round's fold order.
		sortIDs(touched)
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
	ones := sparse.Convert(g.adj, func(_, _ int, _ struct{}) float64 { return 1 })
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

// TriangleCount is the CSR-native count of triangles on three distinct
// vertices: Σ (L·L) ∘ L with L = tril(A, −1), read off the pattern, no L
// built, so a stored (i,i) is on no triangle. For each stored (i,j) with
// j < i it counts the k < j that rows i and j both hold, so each triangle
// is counted once. Only index structure is read. Symmetry is probed: each
// stored (i,j) below the diagonal finds (j,i), and as many entries lie
// above the diagonal as below.
func (g *Graph) TriangleCount() (int, error) {
	var tri, lower, upper int64
	for i := 0; i < g.verts.Len(); i++ {
		ri, _ := g.adj.Row(i)
		below, diag := slices.BinarySearch(ri, int32(i))
		lower += int64(below)
		upper += int64(len(ri) - below)
		if diag {
			upper--
		}
		for p, j := range ri[:below] {
			rj, _ := g.adj.Row(int(j))
			if _, ok := slices.BinarySearch(rj, int32(i)); !ok {
				return 0, fmt.Errorf("algo: triangle counting requires a symmetric adjacency array")
			}
			// ri[:p] holds the k < j of row i; count those row j holds.
			for a, b := 0, 0; a < p && b < len(rj); {
				switch {
				case ri[a] < rj[b]:
					a++
				case ri[a] > rj[b]:
					b++
				default:
					tri++
					a++
					b++
				}
			}
		}
	}
	if lower != upper {
		return 0, fmt.Errorf("algo: triangle counting requires a symmetric adjacency array")
	}
	return int(tri), nil
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
// dangling-mass redistribution, indexed by position in Vertices(): each
// iteration scatters rank[u]/outdeg(u) along the out-edges of every u in
// ascending u, so each vertex's inflow folds its in-neighbors in
// ascending order, numerically identical to the reference (same fold,
// same vertex-order reductions). Returns the ranks and iterations used.
func (g *Graph) PageRankVector(damping, tol float64, maxIter int) ([]float64, int, error) {
	if damping <= 0 || damping >= 1 {
		return nil, 0, fmt.Errorf("algo: damping must be in (0,1), got %v", damping)
	}
	n := g.verts.Len()
	if n == 0 {
		return []float64{}, 0, nil
	}
	// P(u, v) = 1/outdeg(u) depends on the row alone, so the normalized
	// matrix is the pattern plus one vector — built once per Graph, so a
	// burst of PageRank queries against one cached snapshot epoch pays it
	// once. Scaling rank[u] by it forms the products rank[u]·P(u, v) the
	// reference forms.
	g.invOnce.Do(func() {
		g.invDeg = make([]float64, n)
		for u := range g.invDeg {
			if d := g.adj.RowNNZ(u); d > 0 {
				g.invDeg[u] = 1 / float64(d)
			}
		}
	})
	inv := g.invDeg

	rank := make([]float64, n)
	flow := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for iter := 1; iter <= maxIter; iter++ {
		clear(flow)
		dangling := 0.0
		for u, r := range rank {
			if inv[u] == 0 {
				dangling += r
				continue
			}
			scaled := r * inv[u]
			cols, _ := g.adj.Row(u)
			for _, v := range cols {
				flow[v] += scaled
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		delta := 0.0
		for v, f := range flow {
			nv := base + damping*f
			delta += math.Abs(nv - rank[v])
			rank[v] = nv
		}
		if delta < tol {
			return rank, iter, nil
		}
	}
	return rank, maxIter, nil
}
