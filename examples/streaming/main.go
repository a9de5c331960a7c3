// Streaming: maintain an adjacency array under continuous edge ingest.
//
// The paper presents A = Eoutᵀ ⊕.⊗ Ein as a batch computation, but its
// deployment setting is a streaming system where edges arrive
// continuously. Because the edge dimension is the reduction dimension,
// an appended batch K′ contributes exactly one partial product:
//
//	A ⊕= Eout[K′,:]ᵀ ⊕.⊗ Ein[K′,:]
//
// This example ingests a follow-event stream batch by batch, reads live
// snapshots between batches, and then shows that the identity needs no
// associativity: each fold continues the cells already folded, so even
// a non-associative ⊕ gives the batch result whenever the reads fall.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"adjarray"
)

func main() {
	// 1. A maintained view under +.× — ⊕ counts parallel edges.
	v := adjarray.NewAdjacencyView(adjarray.PlusTimes())

	// 2. Edges arrive in batches (keys left empty: auto-assigned in
	// arrival order, satisfying the ascending-key log discipline).
	batches := [][]adjarray.StreamEdge[float64]{
		{{Src: "alice", Dst: "bob"}, {Src: "alice", Dst: "carol"}},
		{{Src: "bob", Dst: "carol"}, {Src: "alice", Dst: "bob"}}, // refollow: parallel edge
		{{Src: "carol", Dst: "alice"}},
	}
	for i, batch := range batches {
		if err := v.Append(batch); err != nil {
			log.Fatal(err)
		}
		snap, err := v.Snapshot() // O(1) read view; never blocks ingest
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after batch %d: %d edges, %d adjacency entries\n",
			i+1, snap.Edges, snap.Adjacency.NNZ())
	}

	snap, err := v.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmaintained adjacency (+.*):")
	fmt.Print(adjarray.Format(snap.Adjacency, adjarray.FormatFloat))

	// 3. The incremental state equals the one-shot construction. The view
	// keeps its edge log by vertex id; Logs builds the key-ordered
	// incidence arrays.
	eout, ein, err := snap.Logs()
	if err != nil {
		log.Fatal(err)
	}
	oneShot, err := adjarray.Correlate(eout, ein, adjarray.PlusTimes(), adjarray.MulOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("incremental == one-shot Correlate:", snap.Adjacency.Equal(oneShot, func(a, b float64) bool { return a == b }))

	// 4. Averaging is NOT associative: grouping the later edges on their
	// own, 1 ⊕ (3⊕5), would give 2.50. A fold starts each cell from the
	// value the earlier edges folded to, so a read between the batches
	// changes nothing: the view holds the sequential fold ((1⊕3)⊕5).
	avg := adjarray.Ops[float64]{
		Name: "avg.*",
		Add:  func(a, b float64) float64 { return (a + b) / 2 },
		Mul:  func(a, b float64) float64 { return a * b },
		Zero: 0, One: 1,
		Equal: func(a, b float64) bool { return a == b },
	}
	w := adjarray.NewAdjacencyView(avg)
	weighted := []adjarray.StreamEdge[float64]{
		{Src: "a", Dst: "b", Out: 1, HasOut: true},
		{Src: "a", Dst: "b", Out: 3, HasOut: true},
		{Src: "a", Dst: "b", Out: 5, HasOut: true},
	}
	if err := w.Append(weighted[:1]); err != nil {
		log.Fatal(err)
	}
	if _, err := w.Snapshot(); err != nil { // materializes the first edge
		log.Fatal(err)
	}
	if err := w.Append(weighted[1:]); err != nil {
		log.Fatal(err)
	}
	ws, err := w.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	got, _ := ws.Adjacency.At("a", "b")
	fmt.Printf("\nnon-associative avg.*: incremental %.2f, sequential fold ((1⊕3)⊕5) = 3.50\n", got)
}
