package graph

import (
	"fmt"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
)

// Weights assigns the incidence-array entries for an edge. Definition
// I.4 only requires the entries to be non-zero; the values themselves
// are data (edge weights, timestamps, labels…).
type Weights[V any] struct {
	// Out gives Eout(k, src); nil means the algebra's One.
	Out func(e Edge) V
	// In gives Ein(k, dst); nil means the algebra's One.
	In func(e Edge) V
}

// Incidence builds the source and target incidence arrays of g
// (Definition I.4): Eout : K×Kout and Ein : K×Kin, with entry values
// chosen by w (both default to ops.One — the unweighted case of
// Figure 1 where "the new value is usually 1").
//
// Incidence returns an error if any weight equals ops.Zero: a zero
// entry would contradict Definition I.4's "non-zero iff incident".
func Incidence[V any](g *Graph, ops semiring.Ops[V], w Weights[V]) (eout, ein *assoc.Array[V], err error) {
	outW := w.Out
	if outW == nil {
		outW = func(Edge) V { return ops.One }
	}
	inW := w.In
	if inW == nil {
		inW = func(Edge) V { return ops.One }
	}
	n := len(g.edges)
	outV, inV := make([]V, n), make([]V, n)
	for i, e := range g.edges {
		ov, iv := outW(e), inW(e)
		if ops.IsZero(ov) {
			return nil, nil, fmt.Errorf("graph: out-weight of edge %q is the zero element", e.Key)
		}
		if ops.IsZero(iv) {
			return nil, nil, fmt.Errorf("graph: in-weight of edge %q is the zero element", e.Key)
		}
		outV[i], inV[i] = ov, iv
	}
	// One entry per row, rows already in edge-key order: both arrays
	// share the row pointer 0..n and the graph's own key sets.
	rowPtr := make([]int, n+1)
	for i := range rowPtr {
		rowPtr[i] = i
	}
	eout, err = unitRows(g.edgeKeys, g.outVerts, rowPtr, g.srcPos, outV)
	if err != nil {
		return nil, nil, err
	}
	ein, err = unitRows(g.edgeKeys, g.inVerts, rowPtr, g.dstPos, inV)
	if err != nil {
		return nil, nil, err
	}
	return eout, ein, nil
}

// unitRows assembles the rows×cols array whose row i holds the single
// entry val[i] in column pos[i].
func unitRows[V any](rows, cols *keys.Set, rowPtr []int, pos []int32, val []V) (*assoc.Array[V], error) {
	colIdx := make([]int, len(pos))
	for i, p := range pos {
		colIdx[i] = int(p)
	}
	mat, err := sparse.NewCSR(rows.Len(), cols.Len(), rowPtr, colIdx, val)
	if err != nil {
		return nil, fmt.Errorf("graph: incidence array: %w", err)
	}
	return assoc.New(rows, cols, mat)
}

// GraphFromIncidence reconstructs the multigraph encoded by a pair of
// incidence arrays: each shared row key k with a non-zero entry in
// column a of eout and column b of ein contributes the edge k : a → b.
// Rows with multiple sources or targets are rejected (not a simple
// directed edge), as are rows with no source or no target entry (they
// encode no edge); either error names the first such row.
func GraphFromIncidence[V any](eout, ein *assoc.Array[V]) (*Graph, error) {
	if !eout.RowKeys().Equal(ein.RowKeys()) {
		return nil, fmt.Errorf("graph: incidence arrays disagree on edge keys")
	}
	rows, om, im := eout.RowKeys(), eout.Matrix(), ein.Matrix()
	for i := 0; i < rows.Len(); i++ {
		if om.RowNNZ(i) > 1 {
			return nil, fmt.Errorf("graph: incidence row has multiple entries: source of %s", rows.Key(i))
		}
		if im.RowNNZ(i) > 1 {
			return nil, fmt.Errorf("graph: incidence row has multiple entries: target of %s", rows.Key(i))
		}
	}
	edges := make([]Edge, rows.Len())
	for i := range edges {
		srcs, _ := om.Row(i)
		dsts, _ := im.Row(i)
		if len(srcs) == 0 || len(dsts) == 0 {
			return nil, fmt.Errorf("graph: edge %q lacks a source or target entry", rows.Key(i))
		}
		edges[i] = Edge{Key: rows.Key(i), Src: eout.ColKeys().Key(srcs[0]), Dst: ein.ColKeys().Key(dsts[0])}
	}
	return New(edges)
}

// Adjacency constructs A = Eoutᵀ ⊕.⊗ Ein with the production sparse
// kernel (Theorem II.1's premise guarantees this equals the dense
// Definition I.3 product for compliant algebras). opt tunes the kernel.
func Adjacency[V any](eout, ein *assoc.Array[V], ops semiring.Ops[V], opt assoc.MulOptions) (*assoc.Array[V], error) {
	return assoc.Correlate(eout, ein, ops, opt)
}

// AdjacencyDense constructs A by the literal Definition I.3 fold over
// every edge key, materializing structural zeros. It is the ground
// truth for the theorem experiments: for non-compliant algebras its
// result may differ from Adjacency — and from being an adjacency array.
func AdjacencyDense[V any](eout, ein *assoc.Array[V], ops semiring.Ops[V]) (*assoc.Array[V], error) {
	return assoc.MulDense(eout.Transpose(), ein, ops)
}

// ReverseAdjacency constructs Einᵀ ⊕.⊗ Eout, which by Corollary III.1
// is an adjacency array of the reverse graph whenever the Theorem II.1
// conditions hold.
func ReverseAdjacency[V any](eout, ein *assoc.Array[V], ops semiring.Ops[V], opt assoc.MulOptions) (*assoc.Array[V], error) {
	return assoc.Correlate(ein, eout, ops, opt)
}

// BuildAdjacency is the one-call convenience: incidence extraction
// followed by sparse construction, returning (A, Eout, Ein).
func BuildAdjacency[V any](g *Graph, ops semiring.Ops[V], w Weights[V], opt assoc.MulOptions) (a, eout, ein *assoc.Array[V], err error) {
	eout, ein, err = Incidence(g, ops, w)
	if err != nil {
		return nil, nil, nil, err
	}
	a, err = Adjacency(eout, ein, ops, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	return a, eout, ein, nil
}

// IsAdjacencyOf checks Definition I.5: a is an adjacency array of g iff
// a's row keys are Kout, its column keys are Kin, and a(x,y) is
// non-zero exactly when g has an edge x → y. Stored entries equal to
// the zero element count as absent (isZero decides). A nil return means
// a is a valid adjacency array; otherwise the error describes the first
// violation.
func IsAdjacencyOf[V any](a *assoc.Array[V], g *Graph, isZero func(V) bool) error {
	if !a.RowKeys().Equal(g.OutVertices()) {
		return fmt.Errorf("graph: adjacency row keys %v differ from Kout %v", a.RowKeys(), g.OutVertices())
	}
	if !a.ColKeys().Equal(g.InVertices()) {
		return fmt.Errorf("graph: adjacency col keys %v differ from Kin %v", a.ColKeys(), g.InVertices())
	}
	// Equal key sets mean a's row and column indices are positions in
	// Kout and Kin, so both directions of Definition I.5 run on integers:
	// the stored entries and the pair index are both in (row, col) order
	// and are merged, then every edge probes its own cell.
	mat, pairs := a.Matrix(), g.pairIndex().pair
	at := 0
	var violation error
	mat.IterateUntil(func(i, j int, v V) bool {
		if isZero(v) {
			return true
		}
		p := packPair(int32(i), int32(j))
		for at < len(pairs) && pairs[at] < p {
			at++
		}
		if at < len(pairs) && pairs[at] == p {
			return true
		}
		x, y := g.outVerts.Key(i), g.inVerts.Key(j)
		violation = fmt.Errorf("graph: A(%s,%s) non-zero but no edge %s→%s exists", x, y, x, y)
		return false
	})
	if violation != nil {
		return violation
	}
	for i, e := range g.edges {
		v, ok := mat.At(int(g.srcPos[i]), int(g.dstPos[i]))
		if !ok || isZero(v) {
			return fmt.Errorf("graph: edge %s→%s (key %s) exists but A(%s,%s) is zero",
				e.Src, e.Dst, e.Key, e.Src, e.Dst)
		}
	}
	return nil
}
