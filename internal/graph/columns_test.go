package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
)

// A Graph holds the key sets and two position columns, not an edge list:
// these tests pin what that must not change (the caller's slice, what
// Edges gives back) and what it is for (bytes).

func TestNewReadsItsInputInPlace(t *testing.T) {
	sorted := ring(500)
	shuffled := slices.Clone(sorted)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, in := range map[string][]Edge{"sorted": slices.Clone(sorted), "shuffled": shuffled} {
		before := slices.Clone(in)
		g, err := New(in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(in, before) {
			t.Fatalf("%s: New wrote to the caller's slice", name)
		}
		// The caller's slice is not kept either: overwriting it changes
		// nothing the graph gives back.
		for i := range in {
			in[i] = Edge{Key: "gone", Src: "gone", Dst: "gone"}
		}
		if !slices.Equal(g.Edges(), sorted) {
			t.Fatalf("%s: the graph's edges changed with the caller's slice", name)
		}
		var seen []Edge
		record := func(e Edge) float64 { seen = append(seen, e); return 1 }
		if _, _, err := Incidence(g, semiring.PlusTimes(), Weights[float64]{Out: record}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(seen, sorted) {
			t.Fatalf("%s: the weight callback was not shown the edges in key order", name)
		}
		// Edges hands out a fresh slice each time.
		es := g.Edges()
		es[0] = Edge{}
		if g.Edges()[0] != sorted[0] {
			t.Fatalf("%s: writing to the result of Edges reached the graph", name)
		}
		e := sorted[len(sorted)/2]
		if got := g.EdgesBetween(e.Src, e.Dst); !slices.Contains(got, e) {
			t.Fatalf("%s: EdgesBetween(%s,%s) = %v lacks %v", name, e.Src, e.Dst, got, e)
		}
		rev := g.Reverse()
		if got := rev.EdgesBetween(e.Dst, e.Src); !slices.Contains(got, Edge{Key: e.Key, Src: e.Dst, Dst: e.Src}) {
			t.Fatalf("%s: the reverse graph lacks the flipped %v: %v", name, e, got)
		}
		if !slices.Equal(rev.Reverse().Edges(), sorted) {
			t.Fatalf("%s: reversing twice changed the edges", name)
		}
	}
}

func TestGraphFromIncidenceTakesColumnPositions(t *testing.T) {
	// Every column used: the arrays' key Sets are the graph's, by pointer.
	g := MustNew(ring(300))
	eout, ein, err := Incidence(g, semiring.PlusTimes(), Weights[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := GraphFromIncidence(eout, ein)
	if err != nil {
		t.Fatal(err)
	}
	if back.EdgeKeys() != g.EdgeKeys() || back.OutVertices() != g.OutVertices() || back.InVertices() != g.InVertices() {
		t.Error("GraphFromIncidence rebuilt key sets the arrays already hold")
	}
	if !slices.Equal(back.Edges(), g.Edges()) {
		t.Error("round trip changed the edges")
	}

	// Arrays laid out over more columns than the edges use: Kout and Kin
	// are the endpoints only, as New would have made them.
	rows, cols := keys.New("k1", "k2", "k3"), keys.New("a", "b", "c", "d", "e")
	wide, err := GraphFromIncidence(rowsArray(t, rows, cols, [][]int32{{1}, {3}, {1}}), rowsArray(t, rows, cols, [][]int32{{3}, {3}, {4}}))
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([]Edge{{"k1", "b", "d"}, {"k2", "d", "d"}, {"k3", "b", "e"}})
	if !slices.Equal(wide.Edges(), want.Edges()) || !wide.OutVertices().Equal(want.OutVertices()) || !wide.InVertices().Equal(want.InVertices()) {
		t.Errorf("over unused columns: %v over %v × %v", wide.Edges(), wide.OutVertices(), wide.InVertices())
	}
	if !wide.HasEdge("b", "e") || wide.HasEdge("a", "d") || wide.HasEdge("b", "c") {
		t.Error("pair lookups on the narrowed vertex sets are wrong")
	}
	a, _, _, err := BuildAdjacency(wide, semiring.PlusTimes(), Weights[float64]{}, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := IsAdjacencyOf(a, wide, semiring.PlusTimes().IsZero); err != nil {
		t.Error(err)
	}

	// New's refusal of empty keys, edge for edge.
	one := [][]int32{{1}, {1}}
	for _, c := range []struct {
		name       string
		rows, cols *keys.Set
		eout       [][]int32
		want       string
	}{
		{"empty edge key", keys.New("", "k"), keys.New("a", "b"), one,
			`graph: edge 0 has empty key/src/dst: {Key: Src:b Dst:b}`},
		{"empty source of the second edge", keys.New("k1", "k2"), keys.New("", "b"), [][]int32{{1}, {0}},
			`graph: edge 1 has empty key/src/dst: {Key:k2 Src: Dst:b}`},
		{"an empty column key no edge uses", keys.New("k1", "k2"), keys.New("", "b"), one, `<nil>`},
	} {
		_, err := GraphFromIncidence(rowsArray(t, c.rows, c.cols, c.eout), rowsArray(t, c.rows, c.cols, one))
		if errText(err) != c.want {
			t.Errorf("%s: %v, want %s", c.name, err, c.want)
		}
	}
}

// Both value columns of an unweighted graph are copies of One and nothing
// ever writes an incidence array, so Eout and Ein hold one slice between
// them; a weight on either side gives each its own.
func TestUnweightedIncidenceSharesOneValueColumn(t *testing.T) {
	g := MustNew(ring(64))
	two := func(Edge) float64 { return 2 }
	for name, c := range map[string]struct {
		w      Weights[float64]
		shared bool
	}{
		"no weights":  {Weights[float64]{}, true},
		"out weights": {Weights[float64]{Out: two}, false},
		"in weights":  {Weights[float64]{In: two}, false},
		"both":        {Weights[float64]{Out: two, In: two}, false},
	} {
		eout, ein, err := Incidence(g, semiring.PlusTimes(), c.w)
		if err != nil {
			t.Fatal(err)
		}
		_, _, out := eout.Matrix().Parts()
		_, _, in := ein.Matrix().Parts()
		if shared := &out[0] == &in[0]; shared != c.shared {
			t.Errorf("%s: the value columns alias = %v, want %v", name, shared, c.shared)
		}
		wantOut, wantIn := 1.0, 1.0
		if c.w.Out != nil {
			wantOut = 2
		}
		if c.w.In != nil {
			wantIn = 2
		}
		for i := range out {
			if out[i] != wantOut || in[i] != wantIn {
				t.Fatalf("%s: edge %d holds (%v, %v), want (%v, %v)", name, i, out[i], in[i], wantOut, wantIn)
			}
		}
	}
}

// allocated returns the bytes f allocates (on every goroutine).
func allocated(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// The exactly-repeating byte counts of set-up and construction, per edge
// on an R-MAT graph (edge keys in order, as a bulk load delivers them).
func TestSetupAndConstructionBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	const scale, edgeFactor = 12, 8
	edges := rmatEdges(scale, edgeFactor)
	n := len(edges)
	ops := semiring.PlusTimes()
	var g *Graph
	var eout, ein *assoc.Array[float64]
	setup := allocated(func() {
		g = MustNew(edges)
		var err error
		if eout, ein, err = Incidence(g, ops, Weights[float64]{}); err != nil {
			t.Fatal(err)
		}
	})
	verts := g.OutVertices().Len() + g.InVertices().Len()
	// Per edge: its key's string header in the edge key Set (16), its two
	// endpoint positions (4 + 4), its slot in the row pointer 0..n the
	// two arrays share (4), its value in the one column of Ones the two
	// unweighted arrays share (8) — 36 B; an edge list on the side would
	// be 48 more, a string column to intern from 16 more. Per vertex and
	// side: the interner's slab, offsets and hash table, each grown by
	// doubling, and the sorted key Set with its position map — under
	// 256 B.
	if limit := 36*n + 256*verts + 1<<14; setup > limit {
		t.Errorf("New + Incidence allocated %d B for %d edges over %d vertices (%.1f B/edge), want at most %d", setup, n, verts, float64(setup)/float64(n), limit)
	}

	// A second pair over the same graph shares the structure: only the
	// value slice is new.
	again := allocated(func() {
		if _, _, err := Incidence(g, ops, Weights[float64]{}); err != nil {
			t.Fatal(err)
		}
	})
	if again < 8*n || again > 8*n+1024 {
		t.Errorf("a second Incidence allocated %d B, want its one value slice (%d B) and a few headers", again, 8*n)
	}

	// Construction allocates its output — bounded by one column (4) and
	// one value (8) per edge — the output's row pointer and per-row
	// counts, and (when a collection emptied the pools) the accumulator
	// over Kin: nothing the size of a transposed operand (12 B per edge
	// more).
	build := func() {
		if _, err := Adjacency(eout, ein, ops, assoc.MulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	build()
	rows, cols := g.OutVertices().Len(), g.InVertices().Len()
	if got, limit := allocated(build), 12*n+8*(rows+1)+32*cols+1<<12; got > limit {
		t.Errorf("Adjacency allocated %d B for %d edges over %d×%d, want at most %d", got, n, rows, cols, limit)
	}
}

// rmatEdges samples edgeFactor·2^scale edges of a 2^scale-vertex R-MAT
// graph, keyed in order.
func rmatEdges(scale, edgeFactor int) []Edge {
	r := rand.New(rand.NewSource(11))
	n := 1 << scale
	edges := make([]Edge, edgeFactor*n)
	for e := range edges {
		src, dst := 0, 0
		for bit := n >> 1; bit >= 1; bit >>= 1 {
			switch p := r.Float64(); {
			case p < 0.57:
			case p < 0.76:
				dst += bit
			case p < 0.95:
				src += bit
			default:
				src += bit
				dst += bit
			}
		}
		edges[e] = Edge{Key: fmt.Sprintf("e%07d", e), Src: fmt.Sprintf("v%05d", src), Dst: fmt.Sprintf("v%05d", dst)}
	}
	return edges
}
