package adjarray_test

import (
	"fmt"
	"sort"

	"adjarray"
)

// The fundamental operation: construct an adjacency array from
// incidence arrays under a chosen ⊕.⊗ pair.
func ExampleCorrelate() {
	eout := adjarray.FromTriples([]adjarray.Triple[float64]{
		{Row: "e1", Col: "alice", Val: 1},
		{Row: "e2", Col: "alice", Val: 1},
		{Row: "e3", Col: "bob", Val: 1},
	}, nil)
	ein := adjarray.FromTriples([]adjarray.Triple[float64]{
		{Row: "e1", Col: "bob", Val: 1},
		{Row: "e2", Col: "bob", Val: 1},
		{Row: "e3", Col: "carol", Val: 1},
	}, nil)
	a, _ := adjarray.Correlate(eout, ein, adjarray.PlusTimes(), adjarray.MulOptions{})
	v, _ := a.At("alice", "bob")
	fmt.Println("alice→bob weight:", v) // two parallel edges, +.× sums
	// Output:
	// alice→bob weight: 2
}

// Exploding a database table into the Figure-1 incidence view.
func ExampleExplode() {
	table := adjarray.Table{
		Rows:   []string{"t1", "t2"},
		Fields: []string{"Genre", "Writer"},
		Cells: [][]string{
			{"Rock", "Ann;Bob"},
			{"Pop", "Ann"},
		},
	}
	e, _ := adjarray.Explode(table, adjarray.ExplodeOptions{})
	fmt.Println(e.ColKeys().Keys())
	// Output:
	// [Genre|Pop Genre|Rock Writer|Ann Writer|Bob]
}

// Checking the Theorem II.1 conditions for an operator pair, and
// getting the constructive counterexample when they fail.
func ExampleFindViolation() {
	bad := adjarray.MaxPlusAtZero() // max.+ anchored at 0: 0 fails to annihilate
	v := adjarray.FindViolation(bad, []float64{0, 1, 2, 3})
	fmt.Println("condition:", v.Condition)
	fmt.Println("gadget edges:", v.Graph.NumEdges())
	// Output:
	// condition: annihilator
	// gadget edges: 2
}

// Provenance construction: which edges produced each adjacency entry.
func ExampleCorrelateKeys() {
	eout := adjarray.FromTriples([]adjarray.Triple[float64]{
		{Row: "track1", Col: "Rock", Val: 1},
		{Row: "track2", Col: "Rock", Val: 1},
	}, nil)
	ein := adjarray.FromTriples([]adjarray.Triple[float64]{
		{Row: "track1", Col: "Ann", Val: 1},
		{Row: "track2", Col: "Ann", Val: 1},
	}, nil)
	prov, _ := adjarray.CorrelateKeys(eout, ein)
	s, _ := prov.At("Rock", "Ann")
	fmt.Println("connecting edges:", s)
	// Output:
	// connecting edges: {track1,track2}
}

// Algorithms downstream of construction: shortest paths on a built
// adjacency array.
func ExampleSSSP() {
	g, _ := adjarray.NewGraph([]adjarray.Edge{
		{Key: "e1", Src: "a", Dst: "b"},
		{Key: "e2", Src: "b", Dst: "c"},
		{Key: "e3", Src: "a", Dst: "c"},
	})
	w := map[string]float64{"e1": 1, "e2": 1, "e3": 5}
	a, _, _, _ := adjarray.BuildAdjacency(g, adjarray.PlusTimes(), adjarray.Weights[float64]{
		Out: func(e adjarray.Edge) float64 { return w[e.Key] },
		In:  func(adjarray.Edge) float64 { return 1 },
	}, adjarray.MulOptions{})
	dist, _ := adjarray.SSSP(a, "a")
	keys := make([]string, 0, len(dist))
	for k := range dist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s:%s ", k, adjarray.FormatFloat(dist[k]))
	}
	fmt.Println()
	// Output:
	// a:0 b:1 c:2
}

// The end-to-end pipeline refuses algebras that cannot guarantee an
// adjacency array. SkipConditionCheck forces the construction, and the
// violation that would have refused it travels with the result.
func ExampleBuild() {
	eout := adjarray.FromTriples([]adjarray.Triple[float64]{{Row: "k", Col: "a", Val: 1}}, nil)
	ein := adjarray.FromTriples([]adjarray.Triple[float64]{{Row: "k", Col: "b", Val: 1}}, nil)
	_, err := adjarray.Build(adjarray.BuildRequest{
		Eout: eout, Ein: ein, Semiring: "max.+@0",
	})
	fmt.Println(err != nil)
	res, err := adjarray.Build(adjarray.BuildRequest{
		Eout: eout, Ein: ein, Semiring: "max.+@0", SkipConditionCheck: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("nnz=%d, carried violation: %s\n", res.Adjacency.NNZ(), res.Violation)
	// Output:
	// true
	// nnz=1, carried violation: annihilator (Lemma II.4) on graph{2 edges, 2 out-vertices, 2 in-vertices}: graph: A(a,b) non-zero but no edge a→b exists
}

// A store partitions the vertex space by source across shards, each with
// its own append lock; a snapshot pins one epoch per shard and gathers
// the shards' row-disjoint arrays into one adjacency array. dir "" keeps
// the store in memory; a directory would make every append durable.
func ExampleOpenAdjacencyStore() {
	sv, err := adjarray.OpenAdjacencyStore("", adjarray.PlusTimes(), 4,
		adjarray.DurableStreamOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sv.Close()
	err = sv.Append([]adjarray.StreamEdge[float64]{
		{Src: "alice", Dst: "bob"}, // keyless: the owning shard assigns the edge key
		{Src: "alice", Dst: "bob"},
		adjarray.WeightedStreamEdge("e3", "bob", "carol", 2.0, 3.0),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	snap, err := sv.Snapshot()
	if err != nil {
		fmt.Println(err)
		return
	}
	ab, _ := snap.Adjacency.At("alice", "bob")
	bc, _ := snap.Adjacency.At("bob", "carol")
	fmt.Println("alice→bob:", ab) // two parallel edges, +.× sums
	fmt.Println("bob→carol:", bc) // out 2 ⊗ in 3
	fmt.Println("epoch vector length:", len(snap.Epochs))
	// Output:
	// alice→bob: 2
	// bob→carol: 6
	// epoch vector length: 4
}
