//go:build ignore

// Writes the fixture directory of internal/stream/testdata/pr30: ADJCKPT
// format 2 as a view wrote it while its folds grouped the edges appended
// since the previous fold on their own. One shard under +.*: the edge
// a→b weighted 0.1, a read (the fold that makes main hold it), the same
// cell weighted 0.2 and 0.3, a checkpoint — whose fold stores
// 0.1 + (0.2 + 0.3) = 0.59999999999999998 where the batch construction
// holds (0.1 + 0.2) + 0.3 = 0.60000000000000009, and whose meta word
// exact reads 0 — then a WAL tail of one more edge, b→a. It was run at
// commit 32bfbc3 from a copy of that checkout as
//
//	sed 1,2d testdata/pr30/gen.go > pr30gen_test.go   # in internal/stream
//	PR30_OUT=$PWD/testdata/pr30 go test -run TestGeneratePR30 .
//
// The files are that run's output and are not to be regenerated with
// later code.
package stream

import (
	"os"
	"path/filepath"
	"testing"

	"adjarray/internal/semiring"
)

// pr30Batches must stay in step with the copy in
// internal/stream/checkpoint_test.go.
func pr30Batches() [][]Edge[float64] {
	return [][]Edge[float64]{
		{Weighted("k1", "a", "b", 0.1, 1)},
		{Weighted("k2", "a", "b", 0.2, 1), Weighted("k3", "a", "b", 0.3, 1)},
		{Weighted("k4", "b", "a", 0.5, 1)},
	}
}

func TestGeneratePR30(t *testing.T) {
	root := os.Getenv("PR30_OUT")
	if root == "" {
		t.Skip("PR30_OUT not set")
	}
	st, err := Open(filepath.Join(root, "regrouped"), semiring.PlusTimes(), 1, Options{}, DurableOptions[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	b := pr30Batches()
	if err := st.Append(b[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(b[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(b[2]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
