//go:build ignore

// Wrote the checkpoint + WAL-tail fixture directories of
// internal/stream/testdata/pr15: ADJCKPT format 1 as PR 15 wrote it from
// an id-space log. They are the REFUSAL fixtures: format 1 was read until
// PR 22 and is refused by name since (TestFormatOneDirectoriesAreRefused,
// wal.TestFormatOneIsRefused, FuzzDecodeView's seeds), and these are the
// only files a format-1 writer ever left in the tree. Kept as the record
// of where they came from; no current code can run it. It needed the
// view's failpoint to roll batches back, so it was a test of package
// stream, not a program: it was run at commit 26f5a85 (PR 15, the last to
// write format 1) from a copy of that checkout as
//
//	sed 1,2d testdata/pr15/gen.go > pr15gen_test.go   # in internal/stream
//	PR15_OUT=$PWD/testdata/pr15 go test -run TestGeneratePR15 .
//
// The files are that run's output, byte for byte, and are not to be
// regenerated.
package stream

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adjarray/internal/semiring"
)

// pr15Step is one append of the fixture stream. A rollback step is
// failed after its endpoints were interned, so its vertices stay behind
// as ids nothing references.
type pr15Step struct {
	batch    []Edge[float64]
	rollback bool
}

// pr15Steps is the stream the fixtures hold (the copy that
// internal/stream/idspace_test.go replayed went with the format-1
// reader). shards1 is the explicit-key stream, shards2 the auto-key one.
// A checkpoint follows step 4, so the ids the
// second rolled-back batch orphaned are the interner's newest and the
// format-1 position map is padded with -1 for them; the first
// rolled-back batch leaves -1 inside the map, and step 5 later uses one
// of its vertices.
func pr15Steps(keyed bool) []pr15Step {
	verts := []string{"n", "d", "y", "b", "r", "zz", "c", "e", "l", "1", "~", "nn", "orphan-mid-a"}
	var steps []pr15Step
	n, key := 0, 0
	add := func(batch []Edge[float64], rollback bool) {
		if keyed {
			for i := range batch {
				batch[i].Key = fmt.Sprintf("k%04d", key+i)
			}
			if !rollback {
				key += len(batch)
			}
		}
		steps = append(steps, pr15Step{batch, rollback})
	}
	orphans := func(tag string) []Edge[float64] {
		var batch []Edge[float64]
		for i := 0; i < 6; i++ {
			batch = append(batch, Edge[float64]{Src: fmt.Sprintf("orphan-%s-%c", tag, 'a'+i), Dst: fmt.Sprintf("orphan-%s-%c", tag, 'f'-i)})
		}
		return batch
	}
	for b := 0; b < 5; b++ {
		batch := make([]Edge[float64], 7)
		for i := range batch {
			pool := 4 + 2*b
			if b == 3 {
				pool = len(verts)
			}
			src := verts[(n*5+b)%pool]
			dst := verts[(n*7+3)%(3+2*b)]
			batch[i] = Edge[float64]{Src: src, Dst: dst, Out: float64(1 + n%3), HasOut: true}
			if n%4 == 0 {
				batch[i].In, batch[i].HasIn = 0.25, true
			}
			n++
		}
		add(batch, false)
		switch b {
		case 0:
			add(orphans("mid"), true)
		case 2:
			add(orphans("tail"), true)
		}
	}
	return steps
}

func TestGeneratePR15(t *testing.T) {
	root := os.Getenv("PR15_OUT")
	if root == "" {
		t.Skip("PR15_OUT not set")
	}
	boom := errors.New("rolled back for the fixture")
	for _, shards := range []int{1, 2} {
		dir := filepath.Join(root, fmt.Sprintf("shards%d", shards))
		st, err := Open(dir, semiring.PlusTimes(), shards, Options{}, DurableOptions[float64]{})
		if err != nil {
			t.Fatal(err)
		}
		for i, step := range pr15Steps(shards == 1) {
			if !step.rollback {
				if err := st.Append(step.batch); err != nil {
					t.Fatal(err)
				}
			} else {
				// Fold first, so that the position maps are built before
				// the orphans exist and stop short of them.
				if _, err := st.Snapshot(); err != nil {
					t.Fatal(err)
				}
				// Shard by shard: a store append stops at the first shard
				// that fails, and every shard is to keep its orphans.
				for s, p := range st.parts {
					var sub []Edge[float64]
					for _, e := range step.batch {
						if st.ShardFor(e.Src) == s {
							sub = append(sub, e)
						}
					}
					if len(sub) == 0 {
						t.Fatalf("step %d leaves shard %d without a rolled-back edge", i, s)
					}
					before := p.v.srcIn.Len()
					p.v.failpoint = func(site string) error {
						if site == "append:interned" {
							return boom
						}
						return nil
					}
					if err := p.append(sub); !errors.Is(err, boom) {
						t.Fatalf("step %d shard %d: err = %v", i, s, err)
					}
					p.v.failpoint = nil
					if p.v.srcIn.Len() == before {
						t.Fatalf("step %d shard %d: the rolled-back batch interned nothing", i, s)
					}
				}
			}
			if i == 4 {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for s, p := range st.parts {
					if len(p.v.srcPos) >= p.v.srcIn.Len() {
						t.Fatalf("shard %d: position map covers all %d ids; the checkpoint padded nothing", s, p.v.srcIn.Len())
					}
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
