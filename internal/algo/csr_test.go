package algo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/conformance"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
	"adjarray/internal/value"
)

// The differential suite: both call shapes of the engine — the Graph
// methods and the one-shot package functions — pinned against the
// assoc.Mul reference loops (reference_test.go) over the conformance
// generators' adversarial instances — R-MAT skew, parallel edges,
// unicode/NUL/0xff keys, NaN and ±Inf weights. Results must be
// BIT-identical: the kernels share the reference's fold order (ascending
// in-neighbor id per output) and pruning rules, so exact equality is the
// contract, not a tolerance. The oracle side of every comparison is a
// ref* function: the package-level names ARE Graph, and comparing them
// with a Graph method would compare the engine with itself.

const diffInstances = 60

func lookupEntry(t *testing.T, name string) semiring.Entry {
	t.Helper()
	entry, ok := semiring.Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	return entry
}

// instanceAdjacency builds the instance's adjacency array under the
// entry's operator pair — the construction the algorithms consume.
func instanceAdjacency(t *testing.T, inst conformance.Instance, ops semiring.Ops[float64]) *assoc.Array[float64] {
	t.Helper()
	eout, ein := inst.Incidence()
	adj, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		t.Fatalf("%s: correlate: %v", inst.Name, err)
	}
	return adj
}

// testSources picks a deterministic spread of source vertices.
func testSources(a *assoc.Array[float64]) []string {
	verts := refVertices(a)
	n := verts.Len()
	if n == 0 {
		return nil
	}
	picks := []int{0, n / 2, n - 1}
	var out []string
	seen := map[string]bool{}
	for _, i := range picks {
		k := verts.Key(i)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func sameFloatMap(a, b map[string]float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("size %d vs %d", len(a), len(b))
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			return fmt.Sprintf("key %q missing", k)
		}
		if !value.Float64Equal(av, bv) {
			return fmt.Sprintf("key %q: %v vs %v", k, av, bv)
		}
	}
	return ""
}

// ranked is PageRank's answer: the ranks and the iterations they took.
type ranked struct {
	rank  map[string]float64
	iters int
}

func rankedOf(rank map[string]float64, iters int, err error) (ranked, error) {
	return ranked{rank, iters}, err
}

// sameAnswer is reflect.DeepEqual, except that float maps compare by
// value.Float64Equal: a propagated NaN weight must match its NaN, which
// DeepEqual's == never does.
func sameAnswer(want, got any) bool {
	switch w := want.(type) {
	case map[string]float64:
		return sameFloatMap(w, got.(map[string]float64)) == ""
	case ranked:
		g := got.(ranked)
		return w.iters == g.iters && sameFloatMap(w.rank, g.rank) == ""
	}
	return reflect.DeepEqual(want, got)
}

// agree fails unless an arm of the engine answered as the reference did:
// the same value (and iteration count), or — divergence and refusal are
// part of the oracle — the same error text.
func agree(t *testing.T, ctx, arm string, want any, werr error, got any, gerr error) {
	t.Helper()
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%s: reference err = %v, %s err = %v", ctx, werr, arm, gerr)
		}
	case !sameAnswer(want, got):
		t.Fatalf("%s: %s = %v, reference = %v", ctx, arm, got, want)
	}
}

func TestCSRBFSMatchesOracle(t *testing.T) {
	gen := conformance.NewGenerator(101)
	entry := lookupEntry(t, "+.*")
	for i := 0; i < diffInstances; i++ {
		inst := gen.Instance(entry)
		if len(inst.Edges) == 0 {
			continue
		}
		adj := instanceAdjacency(t, inst, entry.Ops)
		g, err := FromArray(adj)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range testSources(adj) {
			ctx := fmt.Sprintf("%s[%d] bfs from %q", inst.Name, i, src)
			want, werr := refBFSLevels(adj, src)
			got, gerr := g.BFSLevels(src)
			agree(t, ctx, "graph", want, werr, got, gerr)
			got, gerr = BFSLevels(adj, src)
			agree(t, ctx, "oneshot", want, werr, got, gerr)
		}
	}
}

func TestCSRSSSPMatchesOracle(t *testing.T) {
	gen := conformance.NewGenerator(103)
	entry := lookupEntry(t, "min.+")
	for i := 0; i < diffInstances; i++ {
		inst := gen.Instance(entry)
		if len(inst.Edges) == 0 {
			continue
		}
		adj := instanceAdjacency(t, inst, entry.Ops)
		g, err := FromArray(adj)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range testSources(adj) {
			ctx := fmt.Sprintf("%s[%d] sssp from %q", inst.Name, i, src)
			want, werr := refSSSP(adj, src)
			got, gerr := g.SSSP(src)
			agree(t, ctx, "graph", want, werr, got, gerr)
			got, gerr = SSSP(adj, src)
			agree(t, ctx, "oneshot", want, werr, got, gerr)
		}
	}
}

func TestCSRWidestPathMatchesOracle(t *testing.T) {
	gen := conformance.NewGenerator(107)
	entry := lookupEntry(t, "max.min")
	for i := 0; i < diffInstances; i++ {
		inst := gen.Instance(entry)
		if len(inst.Edges) == 0 {
			continue
		}
		adj := instanceAdjacency(t, inst, entry.Ops)
		g, err := FromArray(adj)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range testSources(adj) {
			ctx := fmt.Sprintf("%s[%d] widest from %q", inst.Name, i, src)
			want, werr := refWidestPath(adj, src)
			got, gerr := g.WidestPath(src)
			agree(t, ctx, "graph", want, werr, got, gerr)
			got, gerr = WidestPath(adj, src)
			agree(t, ctx, "oneshot", want, werr, got, gerr)
		}
	}
}

func TestCSRComponentsMatchesOracle(t *testing.T) {
	gen := conformance.NewGenerator(109)
	entry := lookupEntry(t, "+.*")
	for i := 0; i < diffInstances; i++ {
		inst := gen.Instance(entry)
		adj := instanceAdjacency(t, inst, entry.Ops)
		g, err := FromArray(adj)
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("%s[%d] components", inst.Name, i)
		want, werr := refComponents(adj)
		got, gerr := g.Components()
		agree(t, ctx, "graph", want, werr, got, gerr)
		got, gerr = Components(adj)
		agree(t, ctx, "oneshot", want, werr, got, gerr)
	}
}

func TestCSRTriangleCountMatchesOracle(t *testing.T) {
	gen := conformance.NewGenerator(113)
	entry := lookupEntry(t, "+.*")
	for i := 0; i < diffInstances; i++ {
		inst := gen.Instance(entry)
		if len(inst.Edges) == 0 {
			continue
		}
		adj := instanceAdjacency(t, inst, entry.Ops)
		// Symmetrize the pattern: triangle counting requires an undirected
		// adjacency, so every arm consumes A ∨ Aᵀ with weight 1.
		p := assoc.Convert(adj, func(_, _ string, _ float64) float64 { return 1 })
		sym, err := assoc.Add(p, p.Transpose(), semiring.MaxMin())
		if err != nil {
			t.Fatal(err)
		}
		g, err := FromArray(sym)
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("%s[%d] triangles", inst.Name, i)
		want, werr := refTriangleCount(sym)
		got, gerr := g.TriangleCount()
		agree(t, ctx, "graph", want, werr, got, gerr)
		got, gerr = TriangleCount(sym)
		agree(t, ctx, "oneshot", want, werr, got, gerr)
	}
}

// The lower-triangle walk against the literal (L·L) ∘ L on small
// graphs where self-loops and broken mirrors are common: every answer
// and every error text must be the reference's. Only a broken mirror
// refuses. A quarter of the trials drop one, about 600; a drop refuses
// when the graph is not empty and the dropped entry is off the diagonal,
// 445 times at this seed, so the floor on refusals is 400.
func TestTriangleCountMatchesReferenceOnSmallGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var answers, refusals int
	for trial := 0; trial < 2400; trial++ {
		n := 1 + r.Intn(10)
		var ts []assoc.Triple[float64]
		for e := r.Intn(3 * n); e > 0; e-- {
			u, v := fmt.Sprint(r.Intn(n)), fmt.Sprint(r.Intn(n))
			if u == v && r.Intn(4) != 0 { // keep a self-loop in few graphs
				continue
			}
			for copies := 1 + r.Intn(2); copies > 0; copies-- { // parallel entries
				ts = append(ts, assoc.Triple[float64]{Row: u, Col: v, Val: 1}, assoc.Triple[float64]{Row: v, Col: u, Val: 1})
			}
		}
		if r.Intn(4) == 0 && len(ts) > 0 { // drop one mirror: every copy of one directed entry
			drop := ts[r.Intn(len(ts))]
			if drop.Row != drop.Col {
				ts = slices.DeleteFunc(ts, func(x assoc.Triple[float64]) bool { return x.Row == drop.Row && x.Col == drop.Col })
			}
		}
		a := assoc.FromTriples(ts, nil)
		g, err := FromPattern(a)
		if err != nil {
			t.Fatal(err)
		}
		want, werr := refTriangleCount(a)
		got, gerr := g.TriangleCount()
		agree(t, fmt.Sprintf("trial %d (%d entries)", trial, a.NNZ()), "graph", want, werr, got, gerr)
		if werr != nil {
			refusals++
		} else {
			answers++
		}
	}
	t.Logf("%d answers, %d refusals", answers, refusals)
	if answers < 500 || refusals < 400 {
		t.Fatalf("%d answers and %d refusals: the generator no longer reaches both", answers, refusals)
	}
}

// A triangle is three distinct vertices, so a self-loop is on none: the
// kernel, its one-shot form and the reference against counts made by hand.
func TestTriangleCountIgnoresSelfLoops(t *testing.T) {
	sym := func(edges ...[2]string) *assoc.Array[float64] {
		var ts []assoc.Triple[float64]
		for _, e := range edges {
			ts = append(ts, assoc.Triple[float64]{Row: e[0], Col: e[1], Val: 1}, assoc.Triple[float64]{Row: e[1], Col: e[0], Val: 1})
		}
		return assoc.FromTriples(ts, nil)
	}
	for _, c := range []struct {
		name string
		adj  *assoc.Array[float64]
		want int
	}{
		{"six lone self-loops", sym([2]string{"a", "a"}, [2]string{"b", "b"}, [2]string{"c", "c"}, [2]string{"d", "d"}, [2]string{"e", "e"}, [2]string{"f", "f"}), 0},
		{"a triangle with a self-loop at each vertex", sym([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"}, [2]string{"a", "a"}, [2]string{"b", "b"}, [2]string{"c", "c"}), 1},
		{"one edge with a self-loop at each end", sym([2]string{"a", "b"}, [2]string{"a", "a"}, [2]string{"b", "b"}), 0},
	} {
		g, err := FromPattern(c.adj)
		if err != nil {
			t.Fatal(err)
		}
		kernel, kerr := g.TriangleCount()
		oneShot, oerr := TriangleCount(c.adj)
		ref, rerr := refTriangleCount(c.adj)
		if kernel != c.want || oneShot != c.want || ref != c.want || kerr != nil || oerr != nil || rerr != nil {
			t.Errorf("%s: kernel %d (%v), one-shot %d (%v), reference %d (%v); want %d", c.name, kernel, kerr, oneShot, oerr, ref, rerr, c.want)
		}
	}
}

func TestCSRPageRankMatchesOracle(t *testing.T) {
	gen := conformance.NewGenerator(127)
	entry := lookupEntry(t, "+.*")
	for i := 0; i < diffInstances; i++ {
		inst := gen.Instance(entry)
		adj := instanceAdjacency(t, inst, entry.Ops)
		g, err := FromArray(adj)
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("%s[%d] pagerank", inst.Name, i)
		want, werr := rankedOf(refPageRank(adj, 0.85, 1e-12, 40))
		got, gerr := rankedOf(g.PageRank(0.85, 1e-12, 40))
		agree(t, ctx, "graph", want, werr, got, gerr)
		got, gerr = rankedOf(PageRank(adj, 0.85, 1e-12, 40))
		agree(t, ctx, "oneshot", want, werr, got, gerr)
	}
}

// The inputs a generator rarely draws, each put to all six one-shot
// functions and their reference loops: empty arrays, self-loops, unknown
// sources, an asymmetric triangle input, damping out of range, maxIter 0,
// a negative cycle, ±Inf, 0 and NaN weights. Answers, iteration counts
// and error text must be the reference's — and an unknown source must be
// matchable with errors.Is, which the reference's unwrapped error is not.
func TestOneShotFormsMatchReferenceOnEdgeCases(t *testing.T) {
	arr := func(ts ...assoc.Triple[float64]) *assoc.Array[float64] { return assoc.FromTriples(ts, nil) }
	e := func(r, c string, v float64) assoc.Triple[float64] {
		return assoc.Triple[float64]{Row: r, Col: c, Val: v}
	}
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		adj  *assoc.Array[float64]
	}{
		{"empty", arr()},
		{"self-loop only", arr(e("a", "a", 1))},
		{"self-loop on a path", arr(e("a", "a", 2), e("a", "b", 1), e("b", "c", 1))},
		{"symmetric with a self-loop", arr(e("a", "a", 1), e("a", "b", 1), e("b", "a", 1))},
		{"one directed edge", arr(e("a", "b", 1))},
		{"triangle", arr(e("a", "b", 1), e("b", "a", 1), e("b", "c", 1), e("c", "b", 1), e("a", "c", 1), e("c", "a", 1))},
		{"negative cycle", arr(e("a", "b", -1), e("b", "a", -1), e("b", "c", 4))},
		{"negative edge, no cycle", arr(e("a", "b", 5), e("a", "c", 2), e("c", "b", -4))},
		{"infinite weights", arr(e("a", "b", inf), e("b", "c", -inf), e("a", "c", 1), e("c", "d", inf))},
		{"zero weights", arr(e("a", "b", 0), e("b", "c", 0), e("a", "c", 3))},
		{"NaN weight", arr(e("a", "b", nan), e("b", "c", 1), e("a", "c", 2), e("c", "d", 1))},
		{"two components and a pure sink", arr(e("b", "a", 1), e("x", "y", 7), e("y", "z", 0.5))},
	}
	for _, c := range cases {
		verts := refVertices(c.adj)
		sources := append(verts.Keys(), "zz", "")
		for _, src := range sources {
			ctx := fmt.Sprintf("%s, source %q", c.name, src)
			wl, werr := refBFSLevels(c.adj, src)
			gl, bfsErr := BFSLevels(c.adj, src)
			agree(t, ctx+": bfs", "oneshot", wl, werr, gl, bfsErr)
			wd, werr := refSSSP(c.adj, src)
			gd, ssspErr := SSSP(c.adj, src)
			agree(t, ctx+": sssp", "oneshot", wd, werr, gd, ssspErr)
			ww, werr := refWidestPath(c.adj, src)
			gw, widestErr := WidestPath(c.adj, src)
			agree(t, ctx+": widest", "oneshot", ww, werr, gw, widestErr)
			if _, ok := verts.Index(src); !ok {
				for _, err := range []error{bfsErr, ssspErr, widestErr} {
					if !errors.Is(err, ErrNotVertex) {
						t.Errorf("%s: %v does not wrap ErrNotVertex", ctx, err)
					}
				}
			}
		}
		wc, werr := refComponents(c.adj)
		gc, gerr := Components(c.adj)
		agree(t, c.name+": components", "oneshot", wc, werr, gc, gerr)
		wt, werr := refTriangleCount(c.adj)
		gt, gerr := TriangleCount(c.adj)
		agree(t, c.name+": triangles", "oneshot", wt, werr, gt, gerr)
		for _, damping := range []float64{0.85, 0.5, 0, 1, 1.5, -0.1} {
			for _, maxIter := range []int{50, 1, 0} {
				ctx := fmt.Sprintf("%s: pagerank(%v, 1e-9, %d)", c.name, damping, maxIter)
				want, werr := rankedOf(refPageRank(c.adj, damping, 1e-9, maxIter))
				got, gerr := rankedOf(PageRank(c.adj, damping, 1e-9, maxIter))
				agree(t, ctx, "oneshot", want, werr, got, gerr)
			}
		}
	}
}

// The vector forms answer over Vertices() in key order: position i is
// vertex Key(i), an unreached vertex is level -1 or has[i] == false, and
// the map forms hold exactly the reached positions.
func TestVectorFormsFollowVertexOrder(t *testing.T) {
	adj := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "b", Col: "c", Val: 2},
		{Row: "c", Col: "d", Val: 3},
		{Row: "a", Col: "b", Val: 5}, // a reaches everyone; nobody reaches a
	}, nil)
	g, err := FromArray(adj)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Vertices().Keys(); !slices.Equal(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("vertices = %v", got)
	}
	level, err := g.BFSLevelVector("b")
	if err != nil || !slices.Equal(level, []int{-1, 0, 1, 2}) {
		t.Errorf("BFSLevelVector(b) = %v, %v", level, err)
	}
	dist, has, err := g.SSSPVector("b")
	if err != nil || !slices.Equal(has, []bool{false, true, true, true}) || !slices.Equal(dist[1:], []float64{0, 2, 5}) {
		t.Errorf("SSSPVector(b) = %v %v, %v", dist, has, err)
	}
	width, has, err := g.WidestPathVector("b")
	if err != nil || !slices.Equal(has, []bool{false, true, true, true}) || !slices.Equal(width[1:], []float64{math.Inf(1), 2, 2}) {
		t.Errorf("WidestPathVector(b) = %v %v, %v", width, has, err)
	}
	rank, iters, err := g.PageRankVector(0.85, 1e-9, 50)
	byKey, mapIters, merr := g.PageRank(0.85, 1e-9, 50)
	if err != nil || merr != nil || iters != mapIters || len(rank) != 4 || len(byKey) != 4 {
		t.Fatalf("PageRankVector = %v after %d, %v; PageRank = %v after %d, %v", rank, iters, err, byKey, mapIters, merr)
	}
	for i, r := range rank {
		if byKey[g.Vertices().Key(i)] != r {
			t.Errorf("rank[%d] = %v, the map holds %v for %q", i, r, byKey[g.Vertices().Key(i)], g.Vertices().Key(i))
		}
	}
	if levels, _ := g.BFSLevels("b"); len(levels) != 3 || levels["d"] != 2 {
		t.Errorf("BFSLevels(b) = %v", levels)
	}
}

// PageRank keeps one 1/outdeg vector per Graph, not an out-degree-
// normalized copy of the matrix: once that vector exists, a query
// allocates its rank and inflow vectors and nothing the size of the
// matrix.
func TestPageRankBuildsNoMatrix(t *testing.T) {
	_, g, _ := benchAdjacency(t, 10)
	if _, _, err := g.PageRankVector(0.85, 1e-9, 5); err != nil {
		t.Fatal(err)
	}
	n, nnz := g.Vertices().Len(), g.NumEdges()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := g.PageRankVector(0.85, 1e-9, 5); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(3*8*n) || got >= uint64(8*nnz) {
		t.Errorf("a second PageRank allocated %d bytes over %d vertices and %d entries; want its two vectors (%d bytes)", got, n, nnz, 2*8*n)
	}
}

// fromArrays is the Graph of an adjacency array held as row-disjoint
// parts, none continued by a delta: FromPins over pins with no unfolded
// edges.
func fromArrays(parts []*assoc.Array[float64]) (*Graph, error) {
	return build(parts, nil, semiring.Ops[float64]{})
}

// A Graph built from an adjacency array's row-disjoint parts is the Graph
// built from the array gathered first: the same vertex set, the same CSR
// entry for entry — over the conformance generators' instances (unicode,
// NUL and 0xff keys, NaN and ±Inf weights), dealt out to 1–5 parts that
// each know only the keys they store.
func TestFromArraysMatchesFromArrayOfTheGathered(t *testing.T) {
	gen := conformance.NewGenerator(103)
	entry := lookupEntry(t, "+.*")
	for i := 0; i < diffInstances; i++ {
		inst := gen.Instance(entry)
		adj := instanceAdjacency(t, inst, entry.Ops)
		k := 1 + i%5
		parts := dealRows(adj, k)
		gathered, err := assoc.ConcatRows(parts)
		if err != nil {
			t.Fatalf("%s[%d]: %v", inst.Name, i, err)
		}
		want, err := FromArray(gathered)
		if err != nil {
			t.Fatalf("%s[%d]: %v", inst.Name, i, err)
		}
		got, err := fromArrays(parts)
		if err != nil {
			t.Fatalf("%s[%d]: %v", inst.Name, i, err)
		}
		if !got.verts.Equal(want.verts) {
			t.Fatalf("%s[%d], %d parts: vertices %v, want %v", inst.Name, i, k, got.verts, want.verts)
		}
		if err := got.adj.Validate(); err != nil {
			t.Fatalf("%s[%d], %d parts: %v", inst.Name, i, k, err)
		}
		if !sparse.Equal(got.weighted(), want.weighted(), value.Float64Equal) {
			t.Fatalf("%s[%d], %d parts: the CSR differs from the gathered array's", inst.Name, i, k)
		}
	}
}

// FromArray is the one-part call and shares what it always did: the
// matrix itself for an array already square over one key set, the value
// slice for any other. Parts that store one row between them are refused
// by key.
func TestFromArraySharingAndRefusal(t *testing.T) {
	adj := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "a", Col: "b", Val: 1}, {Row: "c", Col: "d", Val: 2},
	}, nil)
	g, err := FromArray(adj)
	if err != nil {
		t.Fatal(err)
	}
	_, vals := adj.Matrix().Row(0)
	_, gvals := g.weighted().Row(0)
	if g.verts.Len() != 4 || &vals[0] != &gvals[0] {
		t.Errorf("a non-square array's values were copied into the Graph (%d vertices)", g.verts.Len())
	}
	square, err := adj.Reindex(g.verts, g.verts)
	if err != nil {
		t.Fatal(err)
	}
	if g2, err := FromArray(square); err != nil || g2.weighted() != square.Matrix() {
		t.Errorf("a square array's matrix was not used as it is (%v)", err)
	}
	other := assoc.FromTriples([]assoc.Triple[float64]{{Row: "c", Col: "a", Val: 3}}, nil)
	_, err = fromArrays([]*assoc.Array[float64]{adj, other})
	var rc *sparse.RowConflictError
	if !errors.As(err, &rc) || !strings.Contains(err.Error(), `"c"`) {
		t.Errorf("two parts storing row c: got %v", err)
	}
}

// The asymmetric-input, unknown-source and bad-damping refusals.
func TestCSRGraphErrors(t *testing.T) {
	adj := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "a", Col: "b", Val: 1},
		{Row: "b", Col: "c", Val: 1},
	}, nil)
	g, err := FromArray(adj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.BFSLevels("zz"); err == nil {
		t.Error("unknown BFS source accepted")
	}
	if _, err := g.SSSP("zz"); err == nil {
		t.Error("unknown SSSP source accepted")
	}
	if _, err := g.TriangleCount(); err == nil {
		t.Error("asymmetric triangle count accepted")
	}
	if _, _, err := g.PageRank(1.5, 1e-9, 10); err == nil {
		t.Error("out-of-range damping accepted")
	}
}

// The bytes of a serving Graph, as a MemStats delta: building it from
// two row-disjoint parts copies every stored entry's column once (4 B: the
// pattern), the structural kernels push along it and add only vectors
// over the vertices, and only the first weighted kernel lays values down,
// onto the pattern's own arrays (8 B). No kernel builds a transpose, so
// a Graph is 4 B per entry, and 12 once a weighted kernel ran.
func TestGraphBytesPerEntry(t *testing.T) {
	adj, _, src := benchAdjacency(t, 12)
	parts := dealRows(adj, 2)
	allocated := func(f func()) int {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc - before.TotalAlloc)
	}
	var g *Graph
	structural := allocated(func() {
		var err error
		if g, err = fromArrays(parts); err != nil {
			t.Fatal(err)
		}
		if _, err = g.BFSLevelVector(src); err != nil {
			t.Fatal(err)
		}
		if _, _, err = g.PageRankVector(0.85, 1e-9, 5); err != nil {
			t.Fatal(err)
		}
	})
	nnz, verts := g.NumEdges(), g.Vertices().Len()
	t.Logf("%d entries over %d vertices: %d B structural", nnz, verts, structural)
	// Per vertex: its key's header in the vertex set (16), the four
	// position maps of the gather (16), its row pointer (4), BFS's levels
	// and frontiers (16), PageRank's rank, inflow and inverse degrees (24).
	if limit := 4*nnz + 88*verts + 1<<12; structural > limit {
		t.Errorf("fromArrays + BFS + PageRank allocated %d B for %d entries over %d vertices (%.1f B/entry), want at most %d",
			structural, nnz, verts, float64(structural)/float64(nnz), limit)
	}
	weighted := allocated(func() {
		if _, _, err := g.SSSPVector(src); err != nil {
			t.Fatal(err)
		}
	})
	// The values on the pattern (8 per entry) and the relaxation's
	// vectors: values and accumulator (16), two masks (2), and the
	// frontiers, their values and the touched list, each grown by
	// doubling (up to 2 × 20).
	t.Logf("%d B for the first weighted kernel", weighted)
	if limit := 8*nnz + 64*verts + 1<<12; weighted > limit {
		t.Errorf("the first SSSP allocated %d B for %d entries over %d vertices, want at most %d", weighted, nnz, verts, limit)
	}
	if got := allocated(func() { g.SSSPVector(src) }); got >= 8*nnz {
		t.Errorf("a second SSSP allocated %d B: the values were laid on again", got)
	}
}
