package algo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
	"adjarray/internal/stream"
)

// The Graph a store's point pins build (FromPins: every shard's main
// continued by its unfolded suffix as it is copied) against the Graph
// fromArrays builds over the arrays Store.Snapshot folds at the same
// vector: the same vertices, the same pattern, the same weights and the
// same BFS, SSSP, widest-path, PageRank and triangle answers, bit for
// bit, at 1, 2 and 3 shards. The weights are sums of 0.1, 0.2 and 0.3 under +.*,
// whose ⊕ does not associate, so a run folded in any order but the log's
// shows. The rounds append suffixes that bring new source and
// destination vertices, continue cells main stores, fold a main cell and
// a suffix-only cell to Zero (a negated weight), and outgrow the fold
// threshold, so that the point pins fold first. The graph is kept
// symmetric, so TriangleCount answers.
func TestFromPinsMatchesFromArraysOverPin(t *testing.T) {
	ops := semiring.PlusTimes()
	weights := []float64{0.1, 0.2, 0.3, 1, 2.5}
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(shards)))
			store, err := stream.Open("", ops, shards, stream.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			vertex := func(n int) string { return fmt.Sprintf("v%02d", r.Intn(n)) }
			both := func(es []stream.Edge[float64], a, b string, w float64) []stream.Edge[float64] {
				return append(es, stream.Edge[float64]{Src: a, Dst: b, Out: w, HasOut: true}, stream.Edge[float64]{Src: b, Dst: a, Out: w, HasOut: true})
			}
			random := func(n, edges int) []stream.Edge[float64] {
				var es []stream.Edge[float64]
				for len(es) < edges {
					if a, b := vertex(n), vertex(n); a != b {
						es = both(es, a, b, weights[r.Intn(len(weights))])
					}
				}
				return es
			}
			if err := store.Append(random(40, 300)); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Snapshot(); err != nil { // the preload's fold: main holds it
				t.Fatal(err)
			}
			for round, batch := range []struct {
				name  string
				edges func() []stream.Edge[float64]
			}{
				{"new vertices", func() []stream.Edge[float64] {
					es := random(40, 20)
					for i := range 3 {
						es = both(es, fmt.Sprintf("new%d", i), vertex(40), 0.1)
						es = both(es, fmt.Sprintf("new%d", i), fmt.Sprintf("fresh%d", i), 0.2)
					}
					return es
				}},
				{"main cells continued", func() []stream.Edge[float64] { return random(40, 60) }},
				{"cells folded to Zero", func() []stream.Edge[float64] {
					pin, err := store.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					var es []stream.Edge[float64]
					for k, sn := range pin.Shards {
						if sn.Adjacency.NNZ() == 0 {
							continue
						}
						tr := sn.Adjacency.Triples()[k] // a cell main stores, and its mirror
						es = both(es, tr.Row, tr.Col, -tr.Val)
					}
					es = both(es, "z1", "z2", 0.3)
					return both(es, "z1", "z2", -0.3) // a cell only the suffix holds
				}},
				{"past the fold threshold", func() []stream.Edge[float64] { return random(60, 4200*shards) }},
				{"after the fold", func() []stream.Edge[float64] { return random(60, 30) }},
			} {
				if err := store.Append(batch.edges()); err != nil {
					t.Fatal(err)
				}
				// The point pins first: Snapshot folds, and they must not see it.
				pins, epochs, err := store.PointPin()
				if err != nil {
					t.Fatal(err)
				}
				folded := slices.ContainsFunc(pins, func(p stream.PointSnapshot[float64]) bool { return p.Folded })
				if want := batch.name == "past the fold threshold"; folded != want {
					t.Errorf("round %d (%s): a point pin folded: %v, want %v", round, batch.name, folded, want)
				}
				got, err := FromPins(pins)
				if err != nil {
					t.Fatalf("round %d (%s): %v", round, batch.name, err)
				}
				pin, err := store.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(pin.Epochs, epochs) {
					t.Fatalf("round %d: Snapshot at %v, the point pins at %v", round, pin.Epochs, epochs)
				}
				parts := make([]*assoc.Array[float64], len(pin.Shards))
				for k, sn := range pin.Shards {
					parts[k] = sn.Adjacency
				}
				want, err := fromArrays(parts)
				if err != nil {
					t.Fatal(err)
				}
				sameGraph(t, fmt.Sprintf("round %d (%s)", round, batch.name), got, want)
				if _, err := want.TriangleCount(); err != nil {
					t.Errorf("round %d (%s): %v", round, batch.name, err)
				}
			}
		})
	}
}

// sameGraph holds two Graphs to one vertex set, one weighted CSR bit for
// bit, and one answer from every kernel the server runs.
func sameGraph(t *testing.T, where string, got, want *Graph) {
	t.Helper()
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !got.verts.Equal(want.verts) {
		t.Fatalf("%s: vertices %v, want %v", where, got.verts, want.verts)
	}
	if err := got.adj.Validate(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if !sparse.Equal(got.weighted(), want.weighted(), bits) {
		t.Fatalf("%s: the weighted CSR differs", where)
	}
	sameVector := func(kernel string, a, b []float64, ha, hb []bool) {
		t.Helper()
		if !slices.EqualFunc(a, b, bits) || !slices.Equal(ha, hb) {
			t.Errorf("%s: %s answers differ", where, kernel)
		}
	}
	for _, src := range []string{"v00", "v07", "new0", "fresh1", "z2"} {
		gl, gerr := got.BFSLevelVector(src)
		wl, werr := want.BFSLevelVector(src)
		if (gerr == nil) != (werr == nil) || !slices.Equal(gl, wl) {
			t.Errorf("%s: BFS from %s: %v, %v; want %v, %v", where, src, gl, gerr, wl, werr)
		}
		gd, gh, _ := got.SSSPVector(src)
		wd, wh, _ := want.SSSPVector(src)
		sameVector("SSSP from "+src, gd, wd, gh, wh)
		gw, gwh, _ := got.WidestPathVector(src)
		ww, wwh, _ := want.WidestPathVector(src)
		sameVector("widest path from "+src, gw, ww, gwh, wwh)
	}
	gr, gi, gerr := got.PageRankVector(0.85, 1e-12, 50)
	wr, wi, werr := want.PageRankVector(0.85, 1e-12, 50)
	if gi != wi || (gerr == nil) != (werr == nil) {
		t.Errorf("%s: PageRank ran %d iterations (%v), want %d (%v)", where, gi, gerr, wi, werr)
	}
	sameVector("PageRank", gr, wr, nil, nil)
	gt, gerr := got.TriangleCount()
	wt, werr := want.TriangleCount()
	if gt != wt || (gerr == nil) != (werr == nil) {
		t.Errorf("%s: %d triangles (%v), want %d (%v)", where, gt, gerr, wt, werr)
	}
}

// Point pins read the log's suffix by slice header while appends go on:
// a Graph built from them during a stream of appends — some bringing new
// vertices, some growing value columns — is the Graph the same pins build
// once the appends have stopped, weights included. Run under -race.
func TestFromPinsUnderConcurrentAppends(t *testing.T) {
	store, err := stream.Open("", semiring.PlusTimes(), 2, stream.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Append([]stream.Edge[float64]{{Src: "a", Dst: "b"}, {Src: "b", Dst: "a"}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 300 {
			e := stream.Edge[float64]{Src: fmt.Sprintf("s%d", i%23), Dst: fmt.Sprintf("d%d", i%41)}
			if i%3 == 0 {
				e.Out, e.HasOut = 0.1*float64(i%7), true
			}
			if err := store.Append([]stream.Edge[float64]{e, {Src: e.Dst, Dst: "a"}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	type built struct {
		pins []stream.PointSnapshot[float64]
		g    *Graph
	}
	var seen []built
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		pins, _, err := store.PointPin()
		if err != nil {
			t.Fatal(err)
		}
		g, err := FromPins(pins)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.SSSPVector("a"); err != nil {
			t.Fatal(err)
		}
		seen = append(seen, built{pins, g})
	}
	for i, b := range seen {
		again, err := FromPins(b.pins)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, fmt.Sprintf("build %d of %d", i, len(seen)), b.g, again)
	}
}
