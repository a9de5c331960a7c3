// Package graph implements the paper's graph layer: directed
// multigraphs with totally-ordered vertex and edge keys, their source
// and target incidence arrays (Definition I.4), adjacency-array
// construction A = Eoutᵀ ⊕.⊗ Ein, adjacency validation (Definition I.5),
// reverse graphs (Corollary III.1), and the constructive Theorem II.1
// machinery: for every failed algebraic condition, the gadget graph from
// Lemmas II.2–II.4 whose incidence product is provably not an adjacency
// array.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
)

// Edge is one directed edge: Key identifies the edge (K is totally
// ordered, so keys are strings), Src ∈ Kout, Dst ∈ Kin.
type Edge struct {
	Key, Src, Dst string
}

// Graph is a finite directed multigraph G = (Kout ∪ Kin, K). Multiple
// edges between the same vertex pair and self-loops are allowed — the
// paper's lemma gadgets depend on both. Immutable after construction.
//
// Every key crosses into integers once, in New, and the Graph keeps the
// integers only: the three key sets, and per edge — in edge-key order —
// the positions of its endpoints in Kout and Kin. Those two columns are
// the column arrays of the incidence arrays (Definition I.4), which
// every Incidence call shares; Definition I.5 checks and pair lookups
// work on them too, and an Edge is put back together from the key sets
// where one is asked for.
type Graph struct {
	edgeKeys *keys.Set
	outVerts *keys.Set // Kout: sources of edges
	inVerts  *keys.Set // Kin: targets of edges
	// src[i] and dst[i] are the positions of edge i's endpoints in
	// outVerts and inVerts; rowPtr is 0, 1, …, n, built by the first
	// Incidence. Incidence arrays alias all three.
	//
	//adjlint:cow
	src, dst, rowPtr []int32
	rowsOnce         sync.Once

	vertsOnce sync.Once
	verts     *keys.Set // Kout ∪ Kin

	pairsOnce sync.Once
	pairs     pairIndex
}

// pairIndex groups the edges by vertex pair. The pairs are the cells of
// the multiplicity array Eoutᵀ +.* Ein over unit weights — rowPtr and
// colIdx are that array's pattern, Kout × Kin in row-major order — and
// the edges of the g-th cell, in edge-key order, are
// edge[off[g]:off[g+1]].
type pairIndex struct {
	rowPtr, colIdx []int32
	off, edge      []int32
}

// New validates and builds a Graph. Edge keys must be unique and
// non-empty; vertex keys must be non-empty. Edges are taken in edge-key
// order (equal keys in the order given), and the first invalid edge in
// that order is the one reported. The slice is only read, and not kept.
func New(edges []Edge) (*Graph, error) {
	n := len(edges)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edges exceed the 2^31-1 an edge index holds", n)
	}
	// Edges given in strict key order are taken as they lie: FromSorted's
	// one pass over their keys is the test, and the first invalid edge
	// in that order is the one reported. Any other order is sorted.
	eks := make([]string, n)
	bad := -1
	for i := range edges {
		e := &edges[i]
		if bad < 0 && (e.Key == "" || e.Src == "" || e.Dst == "") {
			bad = i
		}
		eks[i] = e.Key
	}
	edgeKeys, err := keys.FromSorted(eks)
	// order[i] is where the i-th edge in key order sits in edges; nil
	// when that is i itself.
	var order []int32
	switch {
	case err != nil:
		order = make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(edges[a].Key, edges[b].Key) })
		for i := range eks {
			e := edgeAt(edges, order, i)
			if e.Key == "" || e.Src == "" || e.Dst == "" {
				return nil, fmt.Errorf("graph: edge %d has empty key/src/dst: %+v", i, *e)
			}
			if i > 0 && eks[i-1] == e.Key {
				return nil, fmt.Errorf("graph: duplicate edge key %q", e.Key)
			}
			eks[i] = e.Key
		}
		if edgeKeys, err = keys.FromSorted(eks); err != nil {
			return nil, fmt.Errorf("graph: edge keys: %w", err) // unreachable: checked above
		}
	case bad >= 0:
		return nil, fmt.Errorf("graph: edge %d has empty key/src/dst: %+v", bad, edges[bad])
	}
	g := &Graph{edgeKeys: edgeKeys}
	// The two endpoint columns share nothing: each has its own interner.
	var wg sync.WaitGroup
	var srcErr, dstErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.outVerts, g.src, srcErr = internColumn(edges, order, func(e *Edge) string { return e.Src })
	}()
	g.inVerts, g.dst, dstErr = internColumn(edges, order, func(e *Edge) string { return e.Dst })
	wg.Wait()
	if err := cmp.Or(srcErr, dstErr); err != nil {
		return nil, fmt.Errorf("graph: vertex keys: %w", err)
	}
	return g, nil
}

func edgeAt(edges []Edge, order []int32, i int) *Edge {
	if order != nil {
		i = int(order[i])
	}
	return &edges[i]
}

// internColumn dedupes one endpoint column through a fresh interner —
// so only the distinct keys are ever sorted — and returns them as a
// Set bound to that interner with each edge's position in it, or the
// interner's refusal of a key (keys.ErrTooManyKeys). The column is read
// a block at a time — the interner writes its ids
// straight into the column — and is never copied out whole.
func internColumn(edges []Edge, order []int32, key func(*Edge) string) (*keys.Set, []int32, error) {
	in := keys.NewInterner()
	col := make([]int32, len(edges))
	var ks [256]string
	for lo := 0; lo < len(col); lo += len(ks) {
		blk := col[lo:min(lo+len(ks), len(col))]
		for i := range blk {
			ks[i] = key(edgeAt(edges, order, lo+i))
		}
		if err := in.InternBatch(ks[:len(blk)], blk); err != nil {
			return nil, nil, err
		}
	}
	set, pos := in.SortedView()
	for i, id := range col {
		col[i] = pos[id]
	}
	return set, col, nil
}

// MustNew is New panicking on error, for statically valid literals.
func MustNew(edges []Edge) *Graph {
	g, err := New(edges)
	if err != nil {
		panic(err)
	}
	return g
}

// edge puts edge i (in edge-key order) back together from the key sets.
func (g *Graph) edge(i int) Edge {
	return Edge{Key: g.edgeKeys.Key(i), Src: g.outVerts.Key(int(g.src[i])), Dst: g.inVerts.Key(int(g.dst[i]))}
}

// Edges returns the edges in edge-key order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, g.NumEdges())
	for i := range out {
		out[i] = g.edge(i)
	}
	return out
}

// NumEdges returns |K|.
func (g *Graph) NumEdges() int { return g.edgeKeys.Len() }

// EdgeKeys returns the totally ordered edge key set K.
func (g *Graph) EdgeKeys() *keys.Set { return g.edgeKeys }

// OutVertices returns Kout, the set of vertices that source some edge.
func (g *Graph) OutVertices() *keys.Set { return g.outVerts }

// InVertices returns Kin, the set of vertices that receive some edge.
func (g *Graph) InVertices() *keys.Set { return g.inVerts }

// Vertices returns the full vertex set Kout ∪ Kin.
func (g *Graph) Vertices() *keys.Set {
	g.vertsOnce.Do(func() {
		u, _, err := keys.UnionAll([]*keys.Set{g.outVerts, g.inVerts})
		if err != nil {
			panic("graph: vertices: " + err.Error()) // only past 2³¹−1 vertices
		}
		g.verts = u
	})
	return g.verts
}

// pairIndex returns the edges grouped by vertex pair, built on first
// use by the construction itself: folding a 1 per edge yields the
// distinct pairs in order with their edge counts, whose prefix sum lays
// out the groups; the edges, in key order, then drop into their pair's.
func (g *Graph) pairIndex() *pairIndex {
	g.pairsOnce.Do(func() {
		ones := make([]int32, g.NumEdges())
		for i := range ones {
			ones[i] = 1
		}
		plus := semiring.Ops[int32]{Add: func(a, b int32) int32 { return a + b }, Equal: func(a, b int32) bool { return a == b }}
		counts, err := sparse.FoldUnitRows(g.outVerts.Len(), g.inVerts.Len(), g.src, g.dst, ones, nil, plus, sparse.MxmOptions{})
		if err != nil {
			panic("graph: pair index: " + err.Error()) // positions come from New
		}
		ix := &g.pairs
		var count []int32
		ix.rowPtr, ix.colIdx, count = counts.Parts()
		ix.off = make([]int32, len(count)+1)
		for p, c := range count {
			ix.off[p+1] = ix.off[p] + c
		}
		ix.edge = ones // every slot is overwritten below
		next := slices.Clone(ix.off[:len(count)])
		for i := range ix.edge {
			p, _ := ix.find(g.src[i], g.dst[i])
			ix.edge[next[p]] = int32(i)
			next[p]++
		}
	})
	return &g.pairs
}

// find returns the index of the pair (src, dst), positions in Kout and
// Kin, among the distinct pairs.
func (ix *pairIndex) find(src, dst int32) (int, bool) {
	lo, hi := ix.rowPtr[src], ix.rowPtr[src+1]
	p, ok := slices.BinarySearch(ix.colIdx[lo:hi], dst)
	return int(lo) + p, ok
}

// between returns the indices of the edges src → dst in edge-key order
// (nil when no edge joins the pair).
func (g *Graph) between(src, dst string) []int32 {
	s, ok := g.outVerts.Index(src)
	if !ok {
		return nil
	}
	d, ok := g.inVerts.Index(dst)
	if !ok {
		return nil
	}
	ix := g.pairIndex()
	p, ok := ix.find(int32(s), int32(d))
	if !ok {
		return nil
	}
	return ix.edge[ix.off[p]:ix.off[p+1]]
}

// HasEdge reports whether at least one edge runs src → dst.
func (g *Graph) HasEdge(src, dst string) bool { return len(g.between(src, dst)) > 0 }

// EdgesBetween returns the edges src → dst in edge-key order.
func (g *Graph) EdgesBetween(src, dst string) []Edge {
	idx := g.between(src, dst)
	out := make([]Edge, len(idx))
	for n, i := range idx {
		out[n] = g.edge(int(i))
	}
	return out
}

// Reverse returns G with every edge direction flipped (same edge and
// vertex keys) — the Ḡ of Corollary III.1. The two sides swap; nothing
// is copied, re-sorted or re-validated.
func (g *Graph) Reverse() *Graph {
	return &Graph{edgeKeys: g.edgeKeys, outVerts: g.inVerts, inVerts: g.outVerts, src: g.dst, dst: g.src}
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{%d edges, %d out-vertices, %d in-vertices}",
		g.NumEdges(), g.outVerts.Len(), g.inVerts.Len())
}
