// The end-to-end construction service.
//
// Incidence arrays go through adjarray.Build: the operator pair is
// resolved by name, the Theorem II.1 conditions are checked on the
// pair's domain and the data, the adjacency array is constructed, and
// the result is validated against the graph the incidence arrays
// encode. The example also shows the pipeline refusing an unsafe
// algebra with a concrete counterexample, and the escape hatch to force
// construction anyway.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"math/rand"

	"adjarray"
	"adjarray/internal/dataset"
)

func main() {
	// 1. Generate a power-law citation-style graph and its incidence
	// arrays, as an ingest job would.
	g := dataset.RMAT(rand.New(rand.NewSource(7)), 7, 4) // 128 vertices, 512 edges
	one := func(adjarray.Edge) float64 { return 1 }
	eout, ein, err := adjarray.Incidence(g, adjarray.PlusTimes(), adjarray.Weights[float64]{Out: one, In: one})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build on two workers and validate against Definition I.5.
	built, err := adjarray.Build(adjarray.BuildRequest{
		Eout: eout, Ein: ein, Semiring: "+.*", Workers: 2, Validate: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built and validated: %d edges -> %d non-zero vertex pairs\n", g.NumEdges(), built.Adjacency.NNZ())

	// 3. Cross-check against the one-line product: the service adds
	// checks, not a different answer.
	want, err := adjarray.Adjacency(eout, ein, adjarray.PlusTimes(), adjarray.MulOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if !want.Equal(built.Adjacency, func(x, y float64) bool { return x == y }) {
		log.Fatal("Build diverges from Adjacency")
	}
	fmt.Println("identical to adjarray.Adjacency ✓")

	// 4. Safety: the Build service refuses an algebra that cannot
	// guarantee adjacency arrays, and explains why with a gadget.
	_, err = adjarray.Build(adjarray.BuildRequest{
		Eout: eout, Ein: ein, Semiring: "max.+@0",
	})
	fmt.Printf("\nunsafe algebra refused: %v\n", err)

	// 5. The escape hatch: forcing construction is possible, and the
	// violation report still travels with the result.
	res, err := adjarray.Build(adjarray.BuildRequest{
		Eout: eout, Ein: ein, Semiring: "max.+@0", SkipConditionCheck: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forced construction: nnz=%d, carried violation: %s\n",
		res.Adjacency.NNZ(), res.Violation)
}
