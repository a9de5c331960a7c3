// Algorithms on constructed adjacency arrays — the paper's opening
// motivation ("...an adjacency array of the graph, A, that can be
// processed with a variety of algorithms") carried out: build A from
// incidence arrays, then run BFS, shortest paths, widest paths,
// components, triangles, and PageRank on it, each one an ⊕.⊗ iteration
// under a different algebra.
//
// Run with: go run ./examples/algorithms
package main

import (
	"fmt"
	"log"
	"sort"

	"adjarray"
)

func main() {
	// A small road network: edges carry (capacity-like) weights.
	g, err := adjarray.NewGraph([]adjarray.Edge{
		{Key: "r01", Src: "depot", Dst: "north"},
		{Key: "r02", Src: "depot", Dst: "south"},
		{Key: "r03", Src: "north", Dst: "plant"},
		{Key: "r04", Src: "south", Dst: "plant"},
		{Key: "r05", Src: "plant", Dst: "port"},
		{Key: "r06", Src: "south", Dst: "port"},
		{Key: "r07", Src: "port", Dst: "depot"},
		{Key: "r08", Src: "north", Dst: "south"},
	})
	if err != nil {
		log.Fatal(err)
	}
	weight := map[string]float64{
		"r01": 4, "r02": 2, "r03": 3, "r04": 5, "r05": 6, "r06": 1, "r07": 2, "r08": 1,
	}

	// Construct A with edge weights as values: under +.× with the
	// weight on the Eout side and 1 on the Ein side, A(a,b) is the sum
	// of the weights of the a→b edges — i.e. the plain weighted
	// adjacency array for a simple graph. The algorithms then pick
	// their own ⊕.⊗ to *process* it (min.+ for distances, max.min for
	// widths), the construction/processing split of the paper.
	w := adjarray.Weights[float64]{
		Out: func(e adjarray.Edge) float64 { return weight[e.Key] },
		In:  func(adjarray.Edge) float64 { return 1 },
	}
	a, _, _, err := adjarray.BuildAdjacency(g, adjarray.PlusTimes(), w, adjarray.MulOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("adjacency array (edge weights):")
	fmt.Print(adjarray.Format(a, adjarray.FormatFloat))

	// BFS hop counts (∨.∧ algebra, pattern only).
	levels, err := adjarray.BFSLevels(a, "depot")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBFS hops from depot:", sorted(levels))

	// Shortest paths (min.+).
	dist, err := adjarray.SSSP(a, "depot")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("min.+ distances from depot:", sortedF(dist, adjarray.FormatFloat))

	// Widest (max bottleneck) paths (max.min).
	width, err := adjarray.WidestPath(a, "depot")
	if err != nil {
		log.Fatal(err)
	}
	delete(width, "depot") // +Inf at the source; omit for display
	fmt.Println("max.min bottleneck widths from depot:", sortedF(width, adjarray.FormatFloat))

	// Weakly connected components (min.select1st propagation).
	comp, err := adjarray.Components(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("components:", sortedS(comp))

	// PageRank over the pattern, at six digits: the last bits of a rank
	// depend on whether the compiler fuses multiply-add.
	rank, iters, err := adjarray.PageRank(a, 0.85, 1e-9, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PageRank (%d iterations): %v\n", iters,
		sortedF(rank, func(v float64) string { return fmt.Sprintf("%.6f", v) }))

	// Reachability closure.
	tc, err := adjarray.TransitiveClosure(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transitive closure has %d reachable pairs\n", tc.NNZ())
}

func sorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s:%d", k, v))
	}
	sort.Strings(out)
	return out
}

func sortedF(m map[string]float64, format func(float64) string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s:%s", k, format(v)))
	}
	sort.Strings(out)
	return out
}

func sortedS(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s→%s", k, v))
	}
	sort.Strings(out)
	return out
}
