//go:build ignore

// Writes the checkpoint + WAL-tail fixture directories of
// internal/stream/testdata/pr14. It was run at commit d1f1324 (PR 14, the
// last with a position-space log) as `go run gen.go internal/stream/testdata/pr14`
// from a copy placed inside that checkout; the files are that run's
// output and are not to be regenerated with later code.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"adjarray/internal/semiring"
	"adjarray/internal/stream"
)

// fixtureBatches must stay in step with the copy in
// internal/stream/compat_test.go.
func fixtureBatches() [][]stream.Edge[float64] {
	verts := []string{"m", "c", "x", "a", "q", "zz", "b", "d", "k", "0", "~", "mm"}
	var out [][]stream.Edge[float64]
	n := 0
	for b := 0; b < 5; b++ {
		batch := make([]stream.Edge[float64], 6)
		for i := range batch {
			src := verts[(n*5+b)%(4+2*b)]
			dst := verts[(n*7+3)%(3+2*b)]
			batch[i] = stream.Edge[float64]{Src: src, Dst: dst, Out: float64(1 + n%3), HasOut: true}
			if n%4 == 0 {
				batch[i].In, batch[i].HasIn = 0.5, true
			}
			n++
		}
		out = append(out, batch)
	}
	return out
}

func main() {
	root := os.Args[1]
	for _, shards := range []int{1, 2} {
		dir := filepath.Join(root, fmt.Sprintf("shards%d", shards))
		st, err := stream.Open(dir, semiring.PlusTimes(), shards, stream.Options{}, stream.DurableOptions[float64]{})
		if err != nil {
			log.Fatal(err)
		}
		for b, batch := range fixtureBatches() {
			if err := st.Append(batch); err != nil {
				log.Fatal(err)
			}
			if b == 2 {
				if err := st.Checkpoint(); err != nil {
					log.Fatal(err)
				}
			}
		}
		if err := st.Close(); err != nil {
			log.Fatal(err)
		}
	}
}
