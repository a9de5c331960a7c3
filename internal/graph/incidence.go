package graph

import (
	"fmt"
	"math"

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
	n := g.NumEdges()
	outV := make([]V, n)
	inV := outV
	if w.Out == nil && w.In == nil {
		// Both columns of an unweighted graph are n copies of One, and the
		// arrays are never written: Eout and Ein share one. One is checked
		// once, and is refused at the first edge.
		if n > 0 && ops.IsZero(ops.One) {
			return nil, nil, fmt.Errorf("graph: out-weight of edge %q is the zero element", g.edgeKeys.Key(0))
		}
		for i := range outV {
			outV[i] = ops.One
		}
	} else {
		inV = make([]V, n)
		for i := range outV {
			ov, iv := ops.One, ops.One
			e := g.edge(i)
			if w.Out != nil {
				ov = w.Out(e)
			}
			if w.In != nil {
				iv = w.In(e)
			}
			if ops.IsZero(ov) {
				return nil, nil, fmt.Errorf("graph: out-weight of edge %q is the zero element", g.edgeKeys.Key(i))
			}
			if ops.IsZero(iv) {
				return nil, nil, fmt.Errorf("graph: in-weight of edge %q is the zero element", g.edgeKeys.Key(i))
			}
			outV[i], inV[i] = ov, iv
		}
	}
	// One entry per row, rows already in edge-key order: the structure
	// of both arrays — the row pointer 0..n and the endpoint columns —
	// is the graph's own, as are the key sets. Only the values are new.
	g.rowsOnce.Do(func() {
		rowPtr := make([]int32, n+1)
		for i := range rowPtr {
			rowPtr[i] = int32(i)
		}
		g.rowPtr = rowPtr
	})
	eout, err = unitRows(g.edgeKeys, g.outVerts, g.rowPtr, g.src, outV)
	if err != nil {
		return nil, nil, err
	}
	ein, err = unitRows(g.edgeKeys, g.inVerts, g.rowPtr, g.dst, inV)
	if err != nil {
		return nil, nil, err
	}
	return eout, ein, nil
}

// unitRows assembles the rows×cols array whose row i holds the single
// entry val[i] in column colIdx[i].
func unitRows[V any](rows, cols *keys.Set, rowPtr, colIdx []int32, val []V) (*assoc.Array[V], error) {
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
// encode no edge); either error names the first such row. The arrays'
// column positions become the graph's endpoint columns as they are; no
// key is looked up again.
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
	if rows.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edges exceed the 2^31-1 an edge index holds", rows.Len())
	}
	src, dst := make([]int32, rows.Len()), make([]int32, rows.Len())
	for i := range src {
		srcs, _ := om.Row(i)
		dsts, _ := im.Row(i)
		if len(srcs) == 0 || len(dsts) == 0 {
			return nil, fmt.Errorf("graph: edge %q lacks a source or target entry", rows.Key(i))
		}
		src[i], dst[i] = srcs[0], dsts[0]
	}
	g := &Graph{edgeKeys: rows, src: src, dst: dst}
	g.outVerts = usedColumns(eout.ColKeys(), src)
	g.inVerts = usedColumns(ein.ColKeys(), dst)
	// New's check on the keys themselves. A key set is sorted, so only
	// its first key can be empty.
	if rows.Len() > 0 && (rows.Key(0) == "" || g.outVerts.Key(0) == "" || g.inVerts.Key(0) == "") {
		for i := range g.src {
			if e := g.edge(i); e.Key == "" || e.Src == "" || e.Dst == "" {
				return nil, fmt.Errorf("graph: edge %d has empty key/src/dst: %+v", i, e)
			}
		}
	}
	return g, nil
}

// usedColumns returns the keys of set that some entry of col refers to
// — Kout and Kin hold the endpoints of edges, not every key an incidence
// array was laid out over — renumbering col to positions in them. When
// every key is used, that is set itself.
func usedColumns(set *keys.Set, col []int32) *keys.Set {
	pos := make([]int32, set.Len())
	used := 0
	for _, j := range col {
		if pos[j] == 0 {
			pos[j] = 1
			used++
		}
	}
	if used == len(pos) {
		return set
	}
	ks := make([]string, 0, used)
	for j, u := range pos {
		if u != 0 {
			pos[j] = int32(len(ks))
			ks = append(ks, set.Key(j))
		}
	}
	for i, j := range col {
		col[i] = pos[j]
	}
	sub, err := keys.FromSorted(ks)
	if err != nil {
		panic("graph: key set out of order: " + err.Error()) // a subsequence of a Set
	}
	return sub
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
	mat, ix := a.Matrix(), g.pairIndex()
	for i := 0; i < mat.Rows(); i++ {
		cols, vals := mat.Row(i)
		at, end := ix.rowPtr[i], ix.rowPtr[i+1]
		for p, j := range cols {
			if isZero(vals[p]) {
				continue
			}
			for at < end && ix.colIdx[at] < j {
				at++
			}
			if at == end || ix.colIdx[at] != j {
				x, y := g.outVerts.Key(i), g.inVerts.Key(int(j))
				return fmt.Errorf("graph: A(%s,%s) non-zero but no edge %s→%s exists", x, y, x, y)
			}
		}
	}
	for i := range g.src {
		v, ok := mat.At(int(g.src[i]), int(g.dst[i]))
		if !ok || isZero(v) {
			e := g.edge(i)
			return fmt.Errorf("graph: edge %s→%s (key %s) exists but A(%s,%s) is zero",
				e.Src, e.Dst, e.Key, e.Src, e.Dst)
		}
	}
	return nil
}
