//go:build ignore

// Writes the fixture directories of internal/stream/testdata/pr20:
// ADJCKPT format 2 as PRs 16–20 wrote it — every edge key and both
// incidence values of every edge spelled out in the checkpoint, whether
// the key was generated and the weight a unit or not — covering three
// batches, plus a WAL tail of two more. auto1 and auto2 hold an unkeyed,
// unweighted stream at one and at two shards, keyed1 and keyed2 the same
// edges under given keys with both weights. It was run at commit 6e719a2
// (PR 20, the last to spell the columns out) from a copy of that checkout
// as
//
//	sed 1,2d testdata/pr20/gen.go > pr20gen_test.go   # in internal/stream
//	PR20_OUT=$PWD/testdata/pr20 go test -run TestGeneratePR20 .
//
// The files are that run's output and are not to be regenerated with
// later code.
package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adjarray/internal/semiring"
)

// pr20Batches must stay in step with the copy in
// internal/stream/idspace_test.go.
func pr20Batches(keyed bool) [][]Edge[float64] {
	verts := []string{"p", "f", "w", "a", "t", "zz", "c", "g", "j", "2", "~", "pp"}
	var out [][]Edge[float64]
	n := 0
	for b := 0; b < 5; b++ {
		batch := make([]Edge[float64], 6)
		for i := range batch {
			batch[i] = Edge[float64]{Src: verts[(n*5+b)%(4+2*b)], Dst: verts[(n*7+3)%(3+2*b)]}
			if keyed {
				batch[i].Key = fmt.Sprintf("k%04d", n)
				batch[i].Out, batch[i].HasOut = float64(1+n%3), true
				batch[i].In, batch[i].HasIn = 0.5, n%4 == 0
			}
			n++
		}
		out = append(out, batch)
	}
	return out
}

func TestGeneratePR20(t *testing.T) {
	root := os.Getenv("PR20_OUT")
	if root == "" {
		t.Skip("PR20_OUT not set")
	}
	for _, fx := range []struct {
		dir    string
		shards int
		keyed  bool
	}{{"auto1", 1, false}, {"auto2", 2, false}, {"keyed1", 1, true}, {"keyed2", 2, true}} {
		st, err := Open(filepath.Join(root, fx.dir), semiring.PlusTimes(), fx.shards, Options{}, DurableOptions[float64]{})
		if err != nil {
			t.Fatal(err)
		}
		for i, batch := range pr20Batches(fx.keyed) {
			if err := st.Append(batch); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
