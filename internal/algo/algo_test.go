package algo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// chain builds a weighted path a→b→c→d plus a shortcut a→d.
func chain() *assoc.Array[float64] {
	return assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "a", Col: "b", Val: 1},
		{Row: "b", Col: "c", Val: 2},
		{Row: "c", Col: "d", Val: 3},
		{Row: "a", Col: "d", Val: 10},
	}, nil)
}

func TestRowVector(t *testing.T) {
	v := RowVector("r", map[string]float64{"x": 1, "y": 2})
	if v.RowKeys().Len() != 1 || v.ColKeys().Len() != 2 || v.NNZ() != 2 {
		t.Fatal("row vector shape wrong")
	}
	if got, _ := v.At("r", "y"); got != 2 {
		t.Error("entry wrong")
	}
}

func TestPattern(t *testing.T) {
	a := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "r", Col: "c", Val: 5}, {Row: "r", Col: "d", Val: 0},
	}, nil)
	p := Pattern(a, nil)
	if p.NNZ() != 2 {
		t.Error("nil isZero should keep all stored entries")
	}
	p2 := Pattern(a, func(v float64) bool { return v == 0 })
	if p2.NNZ() != 1 {
		t.Error("isZero should drop explicit zeros")
	}
}

func TestBFSLevels(t *testing.T) {
	levels, err := BFSLevels(chain(), "a")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 0, "b": 1, "c": 2, "d": 1}
	for v, l := range want {
		if levels[v] != l {
			t.Errorf("level[%s] = %d, want %d", v, levels[v], l)
		}
	}
	if len(levels) != len(want) {
		t.Errorf("levels = %v", levels)
	}
}

func TestBFSUnknownSource(t *testing.T) {
	if _, err := BFSLevels(chain(), "nope"); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestBFSUnreachable(t *testing.T) {
	a := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "a", Col: "b", Val: 1},
		{Row: "x", Col: "y", Val: 1},
	}, nil)
	levels, err := BFSLevels(a, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := levels["x"]; ok {
		t.Error("unreachable vertex in levels")
	}
	if _, ok := levels["y"]; ok {
		t.Error("unreachable vertex in levels")
	}
}

func TestSSSPRelaxesThroughCheaperPath(t *testing.T) {
	dist, err := SSSP(chain(), "a")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"a": 0, "b": 1, "c": 3, "d": 6}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("dist[%s] = %v, want %v (shortcut a→d costs 10 > 6)", v, dist[v], d)
		}
	}
}

func TestSSSPUnknownSource(t *testing.T) {
	if _, err := SSSP(chain(), "zz"); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestSSSPMatchesDijkstraOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		g := dataset.ErdosRenyi(r, 24, 0.12)
		w := func(e graph.Edge) float64 { return float64(1 + len(e.Key)%7) }
		_, eout, ein, err := graph.BuildAdjacency(g, semiring.MinPlus(), graph.Weights[float64]{Out: w, In: func(graph.Edge) float64 { return 0 }}, assoc.MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Build a plain weighted adjacency (weight = out weight since the
		// in weight is the min.+ identity 0).
		a, err := assoc.Correlate(eout, ein, semiring.MinPlus(), assoc.MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		src := g.OutVertices().Key(0)
		got, err := SSSP(a, src)
		if err != nil {
			t.Fatal(err)
		}
		want := dijkstra(a, src)
		if len(got) != len(want) {
			t.Fatalf("trial %d: reach size %d vs %d", trial, len(got), len(want))
		}
		for v, d := range want {
			if !value.Float64Equal(got[v], d) {
				t.Errorf("trial %d: dist[%s] = %v, want %v", trial, v, got[v], d)
			}
		}
	}
}

// dijkstra is an independent oracle (naive O(V²) implementation).
func dijkstra(a *assoc.Array[float64], src string) map[string]float64 {
	dist := map[string]float64{src: 0}
	done := map[string]bool{}
	for {
		best, bestD := "", math.Inf(1)
		for v, d := range dist {
			if !done[v] && d < bestD {
				best, bestD = v, d
			}
		}
		if best == "" {
			return dist
		}
		done[best] = true
		if _, ok := a.RowKeys().Index(best); !ok {
			continue
		}
		for i := 0; i < a.ColKeys().Len(); i++ {
			w := a.ColKeys().Key(i)
			if ew, ok := a.At(best, w); ok {
				if nd := bestD + ew; nd < distOr(dist, w) {
					dist[w] = nd
				}
			}
		}
	}
}

func distOr(m map[string]float64, k string) float64 {
	if d, ok := m[k]; ok {
		return d
	}
	return math.Inf(1)
}

func TestWidestPath(t *testing.T) {
	// Two routes a→d: direct with width 10, or via b,c with bottleneck
	// min(1,2,3)... wait: widest path takes the max over routes.
	width, err := WidestPath(chain(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if width["d"] != 10 {
		t.Errorf("width[d] = %v, want 10 (direct edge beats bottleneck 1)", width["d"])
	}
	if width["c"] != 1 {
		t.Errorf("width[c] = %v, want 1 (min(1,2))", width["c"])
	}
	if !math.IsInf(width["a"], 1) {
		t.Errorf("width[a] = %v, want +Inf", width["a"])
	}
}

func TestComponents(t *testing.T) {
	a := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "b", Col: "a", Val: 1}, // component {a, b}
		{Row: "x", Col: "y", Val: 1}, // component {x, y, z}
		{Row: "y", Col: "z", Val: 1},
	}, nil)
	comp, err := Components(a)
	if err != nil {
		t.Fatal(err)
	}
	if comp["a"] != "a" || comp["b"] != "a" {
		t.Errorf("component of a/b = %s/%s, want a/a", comp["a"], comp["b"])
	}
	if comp["x"] != "x" || comp["y"] != "x" || comp["z"] != "x" {
		t.Errorf("component of x/y/z = %s/%s/%s, want x/x/x", comp["x"], comp["y"], comp["z"])
	}
}

func TestComponentsEmpty(t *testing.T) {
	comp, err := Components(assoc.FromTriples[float64](nil, nil))
	if err != nil || len(comp) != 0 {
		t.Errorf("empty graph components = %v, %v", comp, err)
	}
}

func TestTriangleCount(t *testing.T) {
	// A 4-clique (undirected, symmetric, no self-loops) has C(4,3) = 4
	// triangles.
	b := assoc.NewBuilder[float64](nil)
	verts := []string{"a", "b", "c", "d"}
	for _, u := range verts {
		for _, v := range verts {
			if u != v {
				b.Set(u, v, 1)
			}
		}
	}
	n, err := TriangleCount(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("triangles = %d, want 4", n)
	}
}

func TestTriangleCountRejectsAsymmetric(t *testing.T) {
	a := assoc.FromTriples([]assoc.Triple[float64]{{Row: "a", Col: "b", Val: 1}}, nil)
	if _, err := TriangleCount(a); err == nil {
		t.Error("asymmetric array accepted")
	}
	// A hub joined both ways to 40 spokes, and one entry without its
	// mirror in the middle of the hub's row — stored in the hub's row, or
	// missing from it. Its other end has a symmetric edge to a vertex off
	// the hub, so every row is non-empty, no triangle is formed, and only
	// the probe of that one entry can find the asymmetry.
	for _, hubSide := range []bool{true, false} {
		var tr []assoc.Triple[float64]
		for i := 0; i < 40; i++ {
			s := fmt.Sprintf("s%02d", i)
			tr = append(tr, assoc.Triple[float64]{Row: "hub", Col: s, Val: 1}, assoc.Triple[float64]{Row: s, Col: "hub", Val: 1})
		}
		tr = append(tr, assoc.Triple[float64]{Row: "s19x", Col: "zz", Val: 1}, assoc.Triple[float64]{Row: "zz", Col: "s19x", Val: 1})
		if hubSide {
			tr = append(tr, assoc.Triple[float64]{Row: "hub", Col: "s19x", Val: 1})
		} else {
			tr = append(tr, assoc.Triple[float64]{Row: "s19x", Col: "hub", Val: 1})
		}
		if _, err := TriangleCount(assoc.FromTriples(tr, nil)); err == nil {
			t.Errorf("an asymmetric entry in the middle of a hub row (stored in the hub's row: %v) accepted", hubSide)
		}
	}
}

func TestTriangleCountTriangleFree(t *testing.T) {
	// A 4-cycle is triangle-free.
	b := assoc.NewBuilder[float64](nil)
	cycle := []string{"a", "b", "c", "d"}
	for i, u := range cycle {
		v := cycle[(i+1)%4]
		b.Set(u, v, 1)
		b.Set(v, u, 1)
	}
	n, err := TriangleCount(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("triangles = %d, want 0", n)
	}
}

func TestTransitiveClosure(t *testing.T) {
	tc, err := TransitiveClosure(chain())
	if err != nil {
		t.Fatal(err)
	}
	// a reaches b, c, d; b reaches c, d; c reaches d.
	wantReach := map[string][]string{
		"a": {"b", "c", "d"},
		"b": {"c", "d"},
		"c": {"d"},
	}
	for src, dsts := range wantReach {
		for _, dst := range dsts {
			if v, ok := tc.At(src, dst); !ok || !v {
				t.Errorf("closure missing %s→%s", src, dst)
			}
		}
	}
	if _, ok := tc.At("b", "a"); ok {
		t.Error("closure invented b→a")
	}
}

func TestDegrees(t *testing.T) {
	a := chain()
	out := OutDegrees(a)
	if out["a"] != 2 || out["b"] != 1 || out["c"] != 1 {
		t.Errorf("out degrees = %v", out)
	}
	in := InDegrees(a)
	if in["d"] != 2 || in["b"] != 1 {
		t.Errorf("in degrees = %v", in)
	}
}

func TestPageRankProperties(t *testing.T) {
	// A directed cycle has the uniform stationary distribution.
	b := assoc.NewBuilder[float64](nil)
	cycle := []string{"a", "b", "c", "d", "e"}
	for i, u := range cycle {
		b.Set(u, cycle[(i+1)%len(cycle)], 1)
	}
	rank, iters, err := PageRank(b.Build(), 0.85, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Error("no iterations recorded")
	}
	sum := 0.0
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v, want 1", sum)
	}
	for v, r := range rank {
		if math.Abs(r-0.2) > 1e-6 {
			t.Errorf("rank[%s] = %v, want 0.2 (uniform on a cycle)", v, r)
		}
	}
}

func TestPageRankHubBeatsLeaf(t *testing.T) {
	// Star pointing into "hub": hub must outrank the leaves. "hub" is
	// dangling (no out-edges), exercising the dangling redistribution.
	b := assoc.NewBuilder[float64](nil)
	for _, leaf := range []string{"l1", "l2", "l3", "l4"} {
		b.Set(leaf, "hub", 1)
	}
	rank, _, err := PageRank(b.Build(), 0.85, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range []string{"l1", "l2", "l3", "l4"} {
		if rank["hub"] <= rank[leaf] {
			t.Errorf("hub rank %v should exceed leaf rank %v", rank["hub"], rank[leaf])
		}
	}
	sum := 0.0
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v", sum)
	}
}

func TestPageRankRejectsBadDamping(t *testing.T) {
	a := chain()
	if _, _, err := PageRank(a, 0, 1e-6, 10); err == nil {
		t.Error("damping 0 accepted")
	}
	if _, _, err := PageRank(a, 1, 1e-6, 10); err == nil {
		t.Error("damping 1 accepted")
	}
}

// End-to-end: construct the adjacency array from incidence arrays per
// the paper, then run the algorithm suite on it — the full motivation
// of the paper's opening sentence.
func TestConstructionThenAlgorithms(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	g := dataset.ErdosRenyi(r, 30, 0.1)
	one := func(graph.Edge) float64 { return 1 }
	a, _, _, err := graph.BuildAdjacency(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one}, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := g.OutVertices().Key(0)
	levels, err := BFSLevels(a, src)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SSSP(a, src)
	if err != nil {
		t.Fatal(err)
	}
	// With unit weights, BFS level == min.+ distance on the common
	// support.
	for v, l := range levels {
		if d, ok := dist[v]; ok {
			if float64(l) != d {
				t.Errorf("unit-weight BFS level %d != distance %v at %s", l, d, v)
			}
		} else {
			t.Errorf("BFS reaches %s but SSSP does not", v)
		}
	}
	if _, err := Components(a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := PageRank(a, 0.85, 1e-8, 200); err != nil {
		t.Fatal(err)
	}
}
