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
	"fmt"
	"slices"
	"strings"
	"sync"

	"adjarray/internal/keys"
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
// Every key crosses into integers once, in New: edges are held in
// edge-key order, each endpoint column is interned, and edge i's
// endpoints are kept as positions in Kout and Kin. Incidence arrays,
// Definition I.5 checks and pair lookups then work on positions alone.
type Graph struct {
	edges    []Edge
	edgeKeys *keys.Set
	outVerts *keys.Set // Kout: sources of edges
	inVerts  *keys.Set // Kin: targets of edges
	srcPos   []int32   // srcPos[i]: position of edges[i].Src in outVerts
	dstPos   []int32   // dstPos[i]: position of edges[i].Dst in inVerts

	vertsOnce sync.Once
	verts     *keys.Set // Kout ∪ Kin

	pairsOnce sync.Once
	pairs     pairIndex
}

// pairIndex groups the edges by vertex pair: pair[g] is the g-th
// distinct (srcPos<<32 | dstPos) in ascending order, and its edges, in
// edge-key order, are edge[off[g]:off[g+1]].
type pairIndex struct {
	pair []uint64
	off  []int32
	edge []int32
}

func packPair(src, dst int32) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

func byKey(a, b Edge) int { return strings.Compare(a.Key, b.Key) }

// New validates and builds a Graph. Edge keys must be unique and
// non-empty; vertex keys must be non-empty. Edges are taken in edge-key
// order (equal keys in the order given), and the first invalid edge in
// that order is the one reported.
func New(edges []Edge) (*Graph, error) {
	es := slices.Clone(edges)
	if !slices.IsSortedFunc(es, byKey) {
		slices.SortStableFunc(es, byKey)
	}
	eks := make([]string, len(es))
	for i, e := range es {
		if e.Key == "" || e.Src == "" || e.Dst == "" {
			return nil, fmt.Errorf("graph: edge %d has empty key/src/dst: %+v", i, e)
		}
		if i > 0 && es[i-1].Key == e.Key {
			return nil, fmt.Errorf("graph: duplicate edge key %q", e.Key)
		}
		eks[i] = e.Key
	}
	edgeKeys, err := keys.FromSorted(eks)
	if err != nil {
		return nil, fmt.Errorf("graph: edge keys: %w", err) // unreachable: checked above
	}
	col := make([]string, len(es))
	for i := range es {
		col[i] = es[i].Src
	}
	outVerts, srcPos := internColumn(col)
	for i := range es {
		col[i] = es[i].Dst
	}
	inVerts, dstPos := internColumn(col)
	return &Graph{
		edges:    es,
		edgeKeys: edgeKeys,
		outVerts: outVerts,
		inVerts:  inVerts,
		srcPos:   srcPos,
		dstPos:   dstPos,
	}, nil
}

// internColumn dedupes one endpoint column through a fresh interner —
// so only the distinct keys are ever sorted — and returns them as a
// Set bound to that interner with each entry's position in it.
func internColumn(col []string) (*keys.Set, []int32) {
	in := keys.NewInterner()
	at := make([]int32, len(col))
	in.InternBatch(col, at)
	set, pos := in.SortedView()
	for i, id := range at {
		at[i] = pos[id]
	}
	return set, at
}

// MustNew is New panicking on error, for statically valid literals.
func MustNew(edges []Edge) *Graph {
	g, err := New(edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Edges returns the edges in edge-key order (a copy).
func (g *Graph) Edges() []Edge { return slices.Clone(g.edges) }

// NumEdges returns |K|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// EdgeKeys returns the totally ordered edge key set K.
func (g *Graph) EdgeKeys() *keys.Set { return g.edgeKeys }

// OutVertices returns Kout, the set of vertices that source some edge.
func (g *Graph) OutVertices() *keys.Set { return g.outVerts }

// InVertices returns Kin, the set of vertices that receive some edge.
func (g *Graph) InVertices() *keys.Set { return g.inVerts }

// Vertices returns the full vertex set Kout ∪ Kin.
func (g *Graph) Vertices() *keys.Set {
	g.vertsOnce.Do(func() { g.verts = g.outVerts.Union(g.inVerts) })
	return g.verts
}

// pairIndex returns the edges grouped by vertex pair, built on first
// use: two stable counting sorts (by target, then by source) order the
// edge indices by (srcPos, dstPos, edge key) in O(|K| + |Kout| + |Kin|).
func (g *Graph) pairIndex() *pairIndex {
	g.pairsOnce.Do(func() {
		n := len(g.edges)
		byDst := make([]int32, n)
		for i := range byDst {
			byDst[i] = int32(i)
		}
		byDst = countingSort(byDst, g.dstPos, g.inVerts.Len())
		ix := pairIndex{edge: countingSort(byDst, g.srcPos, g.outVerts.Len())}
		for at, i := range ix.edge {
			p := packPair(g.srcPos[i], g.dstPos[i])
			if at == 0 || p != ix.pair[len(ix.pair)-1] {
				ix.pair = append(ix.pair, p)
				ix.off = append(ix.off, int32(at))
			}
		}
		ix.off = append(ix.off, int32(n))
		g.pairs = ix
	})
	return &g.pairs
}

// countingSort returns idx stably reordered by ascending bucket[idx[n]],
// every bucket value lying in [0, buckets).
func countingSort(idx, bucket []int32, buckets int) []int32 {
	start := make([]int32, buckets+1)
	for _, i := range idx {
		start[bucket[i]+1]++
	}
	for b := 0; b < buckets; b++ {
		start[b+1] += start[b]
	}
	out := make([]int32, len(idx))
	for _, i := range idx {
		out[start[bucket[i]]] = i
		start[bucket[i]]++
	}
	return out
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
	n, ok := slices.BinarySearch(ix.pair, packPair(int32(s), int32(d)))
	if !ok {
		return nil
	}
	return ix.edge[ix.off[n]:ix.off[n+1]]
}

// HasEdge reports whether at least one edge runs src → dst.
func (g *Graph) HasEdge(src, dst string) bool { return len(g.between(src, dst)) > 0 }

// EdgesBetween returns the edges src → dst in edge-key order.
func (g *Graph) EdgesBetween(src, dst string) []Edge {
	idx := g.between(src, dst)
	out := make([]Edge, len(idx))
	for n, i := range idx {
		out[n] = g.edges[i]
	}
	return out
}

// Reverse returns G with every edge direction flipped (same edge and
// vertex keys) — the Ḡ of Corollary III.1. The two sides swap; nothing
// is re-sorted or re-validated.
func (g *Graph) Reverse() *Graph {
	rev := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		rev[i] = Edge{Key: e.Key, Src: e.Dst, Dst: e.Src}
	}
	return &Graph{
		edges:    rev,
		edgeKeys: g.edgeKeys,
		outVerts: g.inVerts,
		inVerts:  g.outVerts,
		srcPos:   g.dstPos,
		dstPos:   g.srcPos,
	}
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{%d edges, %d out-vertices, %d in-vertices}",
		len(g.edges), g.outVerts.Len(), g.inVerts.Len())
}
