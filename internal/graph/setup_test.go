package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/conformance"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
	"adjarray/internal/value"
)

// ---- the differential oracle: the string-keyed triple route ----

// tripleGraph is what New used to build before the graph layer moved to
// integer ids: sorted edges and three key sets from keys.New. It lives
// on here only as the oracle the integer route is compared against.
type tripleGraph struct {
	edges                       []Edge
	edgeKeys, outVerts, inVerts *keys.Set
}

// tripleNew is the former New, check for check. Its sort is stable so
// that equal keys have a defined order (the former sort.Slice was stable
// in effect on every input small enough to be written in a test).
func tripleNew(edges []Edge) (*tripleGraph, error) {
	seen := make(map[string]bool, len(edges))
	var eks, outs, ins []string
	es := make([]Edge, len(edges))
	copy(es, edges)
	sort.SliceStable(es, func(i, j int) bool { return es[i].Key < es[j].Key })
	for i, e := range es {
		if e.Key == "" || e.Src == "" || e.Dst == "" {
			return nil, fmt.Errorf("graph: edge %d has empty key/src/dst: %+v", i, e)
		}
		if seen[e.Key] {
			return nil, fmt.Errorf("graph: duplicate edge key %q", e.Key)
		}
		seen[e.Key] = true
		eks = append(eks, e.Key)
		outs = append(outs, e.Src)
		ins = append(ins, e.Dst)
	}
	return &tripleGraph{
		edges:    es,
		edgeKeys: keys.New(eks...),
		outVerts: keys.New(outs...),
		inVerts:  keys.New(ins...),
	}, nil
}

// between is the brute-force scan HasEdge and EdgesBetween are checked
// against.
func (g *tripleGraph) between(src, dst string) []Edge {
	out := []Edge{}
	for _, e := range g.edges {
		if e.Src == src && e.Dst == dst {
			out = append(out, e)
		}
	}
	return out
}

// tripleIncidence is the former Incidence: []Triple → COO → CSR.
func tripleIncidence[V any](g *tripleGraph, ops semiring.Ops[V], w Weights[V]) (eout, ein *assoc.Array[V], err error) {
	outW := w.Out
	if outW == nil {
		outW = func(Edge) V { return ops.One }
	}
	inW := w.In
	if inW == nil {
		inW = func(Edge) V { return ops.One }
	}
	outT := make([]assoc.Triple[V], 0, len(g.edges))
	inT := make([]assoc.Triple[V], 0, len(g.edges))
	for _, e := range g.edges {
		ov, iv := outW(e), inW(e)
		if ops.IsZero(ov) {
			return nil, nil, fmt.Errorf("graph: out-weight of edge %q is the zero element", e.Key)
		}
		if ops.IsZero(iv) {
			return nil, nil, fmt.Errorf("graph: in-weight of edge %q is the zero element", e.Key)
		}
		outT = append(outT, assoc.Triple[V]{Row: e.Key, Col: e.Src, Val: ov})
		inT = append(inT, assoc.Triple[V]{Row: e.Key, Col: e.Dst, Val: iv})
	}
	return assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil), nil
}

// tripleIsAdjacencyOf is the former IsAdjacencyOf: Definition I.5 on
// key strings.
func tripleIsAdjacencyOf[V any](a *assoc.Array[V], g *tripleGraph, isZero func(V) bool) error {
	if !a.RowKeys().Equal(g.outVerts) {
		return fmt.Errorf("graph: adjacency row keys %v differ from Kout %v", a.RowKeys(), g.outVerts)
	}
	if !a.ColKeys().Equal(g.inVerts) {
		return fmt.Errorf("graph: adjacency col keys %v differ from Kin %v", a.ColKeys(), g.inVerts)
	}
	var violation error
	a.Iterate(func(x, y string, v V) {
		if violation == nil && !isZero(v) && len(g.between(x, y)) == 0 {
			violation = fmt.Errorf("graph: A(%s,%s) non-zero but no edge %s→%s exists", x, y, x, y)
		}
	})
	if violation != nil {
		return violation
	}
	for _, e := range g.edges {
		v, ok := a.At(e.Src, e.Dst)
		if !ok || isZero(v) {
			return fmt.Errorf("graph: edge %s→%s (key %s) exists but A(%s,%s) is zero",
				e.Src, e.Dst, e.Key, e.Src, e.Dst)
		}
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// ---- (a) the differential property ----

// instanceWeights turns a conformance instance into graph input: its
// edges, and Weights callbacks that look each edge's two values up by
// key while recording which edges they were asked about.
type instanceWeights struct {
	out, in         map[string]float64
	outSeen, inSeen []string
}

func newInstanceWeights(es []conformance.Edge) *instanceWeights {
	w := &instanceWeights{out: map[string]float64{}, in: map[string]float64{}}
	for _, e := range es {
		w.out[e.Key], w.in[e.Key] = e.Out, e.In
	}
	return w
}

func (w *instanceWeights) weights() Weights[float64] {
	w.outSeen, w.inSeen = nil, nil
	return Weights[float64]{
		Out: func(e Edge) float64 { w.outSeen = append(w.outSeen, e.Key); return w.out[e.Key] },
		In:  func(e Edge) float64 { w.inSeen = append(w.inSeen, e.Key); return w.in[e.Key] },
	}
}

// checkAgainstTripleRoute holds one edge list (in the order given) to
// the whole property.
func checkAgainstTripleRoute(t *testing.T, edges []Edge, ops semiring.Ops[float64], iw *instanceWeights) {
	t.Helper()
	want, wantErr := tripleNew(edges)
	g, err := New(edges)
	if errText(err) != errText(wantErr) {
		t.Fatalf("New: %v, the triple route says %v", err, wantErr)
	}
	if err != nil {
		return
	}

	// The graph itself.
	if !slices.Equal(g.Edges(), want.edges) {
		t.Fatalf("edges %v, want %v", g.Edges(), want.edges)
	}
	if !g.EdgeKeys().Equal(want.edgeKeys) || !g.OutVertices().Equal(want.outVerts) || !g.InVertices().Equal(want.inVerts) {
		t.Fatalf("key sets K=%v Kout=%v Kin=%v, want %v %v %v",
			g.EdgeKeys(), g.OutVertices(), g.InVertices(), want.edgeKeys, want.outVerts, want.inVerts)
	}
	verts := want.outVerts.Union(want.inVerts)
	if first, again := g.Vertices(), g.Vertices(); !first.Equal(verts) || first != again {
		t.Fatalf("Vertices %v, want %v, the same Set on every call", first, verts)
	}
	for i := 0; i < g.OutVertices().Len(); i++ {
		if p, ok := g.OutVertices().Index(g.OutVertices().Key(i)); !ok || p != i {
			t.Fatalf("Kout.Index(%q) = %d,%v, want %d", g.OutVertices().Key(i), p, ok, i)
		}
	}

	// Pair lookups against the brute-force scan, absent keys included.
	probe := append(verts.Keys(), "", "no-such-vertex")
	for _, x := range probe {
		for _, y := range probe {
			between := want.between(x, y)
			if got := g.EdgesBetween(x, y); !slices.Equal(got, between) {
				t.Fatalf("EdgesBetween(%q,%q) = %v, want %v", x, y, got, between)
			}
			if g.HasEdge(x, y) != (len(between) > 0) {
				t.Fatalf("HasEdge(%q,%q) = %v with %d edges between", x, y, g.HasEdge(x, y), len(between))
			}
		}
	}

	// Incidence arrays: the instance's weights (never the pair's Zero),
	// then unit weights.
	for _, weighted := range []bool{true, false} {
		var w Weights[float64]
		if weighted {
			w = iw.weights()
		}
		eout, ein, err := Incidence(g, ops, w)
		if weighted {
			ks := want.edgeKeys.Keys()
			if !slices.Equal(iw.outSeen, ks) || !slices.Equal(iw.inSeen, ks) {
				t.Fatalf("weight callbacks saw out=%v in=%v, want each of %v once in key order", iw.outSeen, iw.inSeen, ks)
			}
			w = iw.weights()
		}
		wantOut, wantIn, wantErr := tripleIncidence(want, ops, w)
		if errText(err) != errText(wantErr) {
			t.Fatalf("Incidence (%s, weighted=%v): %v, the triple route says %v", ops.Name, weighted, err, wantErr)
		}
		if err != nil {
			continue // a pair whose One is its Zero refuses unit weights
		}
		if !eout.Equal(wantOut, value.Float64Equal) || !ein.Equal(wantIn, value.Float64Equal) {
			t.Fatalf("incidence arrays differ from the triple route:\nEout %v\nwant %v\nEin %v\nwant %v",
				eout.Triples(), wantOut.Triples(), ein.Triples(), wantIn.Triples())
		}
		if err := eout.Matrix().Validate(); err != nil {
			t.Fatalf("Eout: %v", err)
		}
		if err := ein.Matrix().Validate(); err != nil {
			t.Fatalf("Ein: %v", err)
		}
		back, err := GraphFromIncidence(eout, ein)
		if err != nil {
			t.Fatalf("GraphFromIncidence: %v", err)
		}
		if !slices.Equal(back.Edges(), want.edges) {
			t.Fatalf("GraphFromIncidence edges %v, want %v", back.Edges(), want.edges)
		}
	}

	// The reverse graph is the triple route's graph of the flipped list,
	// and reversing twice is the identity.
	flipped := make([]Edge, len(edges))
	for i, e := range edges {
		flipped[i] = Edge{Key: e.Key, Src: e.Dst, Dst: e.Src}
	}
	wantRev, err := tripleNew(flipped)
	if err != nil {
		t.Fatal(err)
	}
	rev := g.Reverse()
	if !slices.Equal(rev.Edges(), wantRev.edges) || !rev.OutVertices().Equal(wantRev.outVerts) || !rev.InVertices().Equal(wantRev.inVerts) {
		t.Fatalf("Reverse: %v over %v × %v", rev.Edges(), rev.OutVertices(), rev.InVertices())
	}
	revOut, revIn, err := Incidence(rev, ops, iw.weights())
	if err != nil {
		t.Fatal(err)
	}
	wantRevOut, wantRevIn, err := tripleIncidence(wantRev, ops, iw.weights())
	if err != nil {
		t.Fatal(err)
	}
	if !revOut.Equal(wantRevOut, value.Float64Equal) || !revIn.Equal(wantRevIn, value.Float64Equal) {
		t.Fatal("incidence arrays of the reverse graph differ from the triple route")
	}
	for _, e := range want.edges {
		if !slices.Equal(rev.EdgesBetween(e.Dst, e.Src), wantRev.between(e.Dst, e.Src)) {
			t.Fatalf("Reverse: EdgesBetween(%q,%q) = %v", e.Dst, e.Src, rev.EdgesBetween(e.Dst, e.Src))
		}
	}
	if !slices.Equal(rev.Reverse().Edges(), want.edges) {
		t.Fatal("reversing twice changed the edges")
	}

	// Definition I.5 on positions agrees with Definition I.5 on strings:
	// on the +.* product, on it with one cell dropped, with one spurious
	// cell, with that cell an explicit zero, and on the wrong key sets.
	pt := semiring.PlusTimes()
	a, _, _, err := BuildAdjacency(g, pt, Weights[float64]{}, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := IsAdjacencyOf(a, g, pt.IsZero); err != nil {
		t.Fatalf("the +.* product is not an adjacency array: %v", err)
	}
	candidates := []*assoc.Array[float64]{a, a.Transpose()}
	stored := a.Triples()
	if len(stored) > 0 {
		drop := stored[len(stored)/2]
		candidates = append(candidates, a.Map(func(r, c string, v float64) float64 {
			if r == drop.Row && c == drop.Col {
				return 0
			}
			return v
		}).Prune(pt.IsZero))
	}
spurious:
	for _, x := range want.outVerts.Keys() {
		for _, y := range want.inVerts.Keys() {
			if len(want.between(x, y)) > 0 {
				continue
			}
			for _, v := range []float64{7, 0} {
				extra := assoc.FromTriples(append(a.Triples(), assoc.Triple[float64]{Row: x, Col: y, Val: v}), nil)
				candidates = append(candidates, extra)
			}
			break spurious
		}
	}
	for n, c := range candidates {
		got, wantErr := IsAdjacencyOf(c, g, pt.IsZero), tripleIsAdjacencyOf(c, want, pt.IsZero)
		if errText(got) != errText(wantErr) {
			t.Fatalf("IsAdjacencyOf candidate %d: %v, the triple route says %v", n, got, wantErr)
		}
	}
}

func TestIntegerRouteEqualsTripleRoute(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	gen := conformance.NewGenerator(12)
	arms := map[string]int{}
	for _, entry := range semiring.Registry() {
		for n := 0; n < 25; n++ {
			inst := gen.Instance(entry)
			arms[inst.Name]++
			iw := newInstanceWeights(inst.Edges)
			edges := make([]Edge, len(inst.Edges))
			for i, e := range inst.Edges {
				edges[i] = Edge{Key: e.Key, Src: e.Src, Dst: e.Dst}
			}
			// The generator's vertex pool includes the empty key, which
			// both routes must refuse alike; the rest of the property is
			// then checked on the instance without those edges.
			checkAgainstTripleRoute(t, edges, entry.Ops, iw)
			edges = slices.DeleteFunc(edges, func(e Edge) bool { return e.Src == "" || e.Dst == "" })

			reversed := slices.Clone(edges)
			slices.Reverse(reversed)
			shuffled := slices.Clone(edges)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, order := range [][]Edge{edges, reversed, shuffled} {
				checkAgainstTripleRoute(t, order, entry.Ops, iw)
				if t.Failed() {
					t.Fatalf("instance %s/%s #%d:\n%s", entry.Ops.Name, inst.Name, n, inst.Encode())
				}
			}
		}
	}
	for _, arm := range []string{"empty", "single-vertex", "parallel-edges", "rmat-skew", "unicode-keys", "sparse-wide"} {
		if arms[arm] == 0 {
			t.Errorf("generator arm %q never drawn; raise the instance count", arm)
		}
	}
}

// ---- (b) which error wins ----

func TestNewReportsFirstFailingEdgeInKeyOrder(t *testing.T) {
	cases := []struct {
		name  string
		edges []Edge
		want  string
	}{
		{"empty key sorts first", []Edge{{"k", "a", "b"}, {"", "c", "d"}},
			`graph: edge 0 has empty key/src/dst: {Key: Src:c Dst:d}`},
		{"two invalid edges, later key given first", []Edge{{"b", "", "x"}, {"a", "y", ""}},
			`graph: edge 0 has empty key/src/dst: {Key:a Src:y Dst:}`},
		{"invalid edge after valid ones", []Edge{{"c", "", "x"}, {"a", "p", "q"}, {"b", "p", "q"}},
			`graph: edge 2 has empty key/src/dst: {Key:c Src: Dst:x}`},
		{"duplicate before a later empty source", []Edge{{"k2", "", "x"}, {"k1", "a", "b"}, {"k1", "c", "d"}},
			`graph: duplicate edge key "k1"`},
		{"empty source before a later duplicate", []Edge{{"k", "a", "b"}, {"k", "c", "d"}, {"a", "", "x"}},
			`graph: edge 0 has empty key/src/dst: {Key:a Src: Dst:x}`},
		{"second copy of a key is itself invalid", []Edge{{"k", "a", "b"}, {"k", "", "d"}},
			`graph: edge 1 has empty key/src/dst: {Key:k Src: Dst:d}`},
		{"first copy of a key is invalid", []Edge{{"k", "", "b"}, {"k", "c", "d"}},
			`graph: edge 0 has empty key/src/dst: {Key:k Src: Dst:b}`},
		{"NUL and 0xff keys are ordinary keys", []Edge{{"e\xff", "v\x00", "v"}, {"e\x00", "v", "v\xff"}, {"e\x00", "v", "v"}},
			`graph: duplicate edge key "e\x00"`},
	}
	for _, c := range cases {
		_, err := New(c.edges)
		if errText(err) != c.want {
			t.Errorf("%s: New says %v, want %s", c.name, err, c.want)
		}
		if _, oracleErr := tripleNew(c.edges); errText(oracleErr) != c.want {
			t.Errorf("%s: the triple route says %v, want %s", c.name, oracleErr, c.want)
		}
	}
}

func TestIncidenceReportsFirstZeroWeightInKeyOrder(t *testing.T) {
	g := MustNew([]Edge{{"e2", "a", "b"}, {"e1", "b", "c"}, {"e3", "c", "a"}})
	zeroAt := func(ks ...string) func(Edge) float64 {
		return func(e Edge) float64 {
			if slices.Contains(ks, e.Key) {
				return 0
			}
			return 1
		}
	}
	cases := []struct {
		name string
		w    Weights[float64]
		want string
	}{
		{"in-weight of an earlier edge beats out-weight of a later one", Weights[float64]{Out: zeroAt("e2"), In: zeroAt("e1")},
			`graph: in-weight of edge "e1" is the zero element`},
		{"out before in on the same edge", Weights[float64]{Out: zeroAt("e2", "e3"), In: zeroAt("e2")},
			`graph: out-weight of edge "e2" is the zero element`},
		{"only the last edge", Weights[float64]{In: zeroAt("e3")},
			`graph: in-weight of edge "e3" is the zero element`},
	}
	for _, c := range cases {
		if _, _, err := Incidence(g, semiring.PlusTimes(), c.w); errText(err) != c.want {
			t.Errorf("%s: %v, want %s", c.name, err, c.want)
		}
	}
	// An algebra whose One is its Zero refuses the default weights at the
	// first edge.
	broken := semiring.PlusTimes()
	broken.One = broken.Zero
	if _, _, err := Incidence(g, broken, Weights[float64]{}); errText(err) != `graph: out-weight of edge "e1" is the zero element` {
		t.Errorf("One == Zero: %v", err)
	}
}

// rowsArray builds a len(rows)-row array over cols whose row i stores
// 1 in each of the listed column positions.
func rowsArray(t *testing.T, rows, cols *keys.Set, entries [][]int32) *assoc.Array[float64] {
	t.Helper()
	rowPtr := []int32{0}
	var colIdx []int32
	for _, cs := range entries {
		colIdx = append(colIdx, cs...)
		rowPtr = append(rowPtr, int32(len(colIdx)))
	}
	val := make([]float64, len(colIdx))
	for i := range val {
		val[i] = 1
	}
	mat, err := sparse.NewCSR(rows.Len(), cols.Len(), rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assoc.New(rows, cols, mat)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGraphFromIncidenceNamesFirstOffendingRow(t *testing.T) {
	rows, cols := keys.New("k1", "k2", "k3"), keys.New("a", "b")
	one := [][]int32{{0}, {1}, {0}}
	cases := []struct {
		name      string
		eout, ein [][]int32
		want      string
	}{
		{"two rows with two sources", [][]int32{{0}, {0, 1}, {0, 1}}, one,
			"graph: incidence row has multiple entries: source of k2"},
		{"a target row before a source row", [][]int32{{0}, {1}, {0, 1}}, [][]int32{{0}, {0, 1}, {1}},
			"graph: incidence row has multiple entries: target of k2"},
		{"source before target on the same row", [][]int32{{0, 1}, {1}, {0}}, [][]int32{{0, 1}, {0}, {1}},
			"graph: incidence row has multiple entries: source of k1"},
		{"multiple entries outrank an earlier empty row", [][]int32{{}, {1}, {0, 1}}, one,
			"graph: incidence row has multiple entries: source of k3"},
		{"two rows lack an entry", [][]int32{{0}, {}, {0}}, [][]int32{{0}, {1}, {}},
			`graph: edge "k2" lacks a source or target entry`},
	}
	for _, c := range cases {
		_, err := GraphFromIncidence(rowsArray(t, rows, cols, c.eout), rowsArray(t, rows, cols, c.ein))
		if errText(err) != c.want {
			t.Errorf("%s: %v, want %s", c.name, err, c.want)
		}
	}
}

// ---- (c) sharing and allocation pins ----

func ring(n int) []Edge {
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Key: fmt.Sprintf("e%07d", i), Src: fmt.Sprintf("v%05d", i%97), Dst: fmt.Sprintf("v%05d", (i+1)%89)}
	}
	return edges
}

func TestIncidenceSharesTheGraphsKeySets(t *testing.T) {
	g := MustNew(ring(300))
	eout, ein, err := Incidence(g, semiring.PlusTimes(), Weights[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	if eout.RowKeys() != g.EdgeKeys() || ein.RowKeys() != g.EdgeKeys() {
		t.Error("Eout, Ein and the graph do not share one edge key Set")
	}
	if eout.ColKeys() != g.OutVertices() || ein.ColKeys() != g.InVertices() {
		t.Error("incidence columns are not the graph's vertex Sets")
	}
	if !g.OutVertices().Interned() || !g.InVertices().Interned() {
		t.Error("vertex Sets are not interner-bound")
	}
	// Shared Sets carry through the product: A's keys are the graph's,
	// so IsAdjacencyOf's key-set comparison is a pointer comparison too.
	a, err := Adjacency(eout, ein, semiring.PlusTimes(), assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.RowKeys() != g.OutVertices() || a.ColKeys() != g.InVertices() {
		t.Error("the adjacency array does not carry the graph's vertex Sets")
	}
	r := g.Reverse()
	if r.EdgeKeys() != g.EdgeKeys() || r.OutVertices() != g.InVertices() || r.InVertices() != g.OutVertices() {
		t.Error("Reverse rebuilt key sets instead of swapping them")
	}
}

func TestIncidenceAllocationsIndependentOfEdgeCount(t *testing.T) {
	allocs := func(n int) float64 {
		g := MustNew(ring(n))
		return testing.AllocsPerRun(5, func() {
			if _, _, err := Incidence(g, semiring.PlusTimes(), Weights[float64]{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(20000)
	if small != large || large > 16 {
		t.Errorf("Incidence allocates %v times on 100 edges, %v on 20000; want the same small constant", small, large)
	}
}

// ---- (d) the lazy pair index under concurrent first use ----

func TestPairIndexConcurrentFirstUse(t *testing.T) {
	edges := ring(2000)
	want, err := tripleNew(edges)
	if err != nil {
		t.Fatal(err)
	}
	g := MustNew(edges) // fresh: no lookup has built the index yet
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += 8 {
				e := edges[i]
				if !g.HasEdge(e.Src, e.Dst) || g.HasEdge(e.Dst+"x", e.Src) {
					t.Errorf("HasEdge wrong around %v", e)
				}
				if got := g.EdgesBetween(e.Src, e.Dst); !slices.Equal(got, want.between(e.Src, e.Dst)) {
					t.Errorf("EdgesBetween(%s,%s) = %v", e.Src, e.Dst, got)
				}
				if g.Vertices().Len() != 97 {
					t.Errorf("Vertices().Len() = %d", g.Vertices().Len())
				}
			}
		}(w)
	}
	wg.Wait()
}
