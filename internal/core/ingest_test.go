package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/stream"
)

// Ingest-accumulated triples produce the same adjacency as a one-shot
// batch construction over the same edges.
func TestIngestMatchesBuild(t *testing.T) {
	ing, err := NewIngest(IngestOptions{Semiring: "+.*", BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	type edge struct{ src, dst string }
	edges := []edge{
		{"a", "b"}, {"a", "c"}, {"b", "c"}, {"c", "a"}, {"a", "b"},
		{"b", "a"}, {"c", "b"}, {"a", "c"}, {"b", "c"}, {"c", "c"},
	}
	outT := make([]assoc.Triple[float64], len(edges))
	inT := make([]assoc.Triple[float64], len(edges))
	for i, e := range edges {
		key := fmt.Sprintf("e%03d", i)
		if err := ing.Add(stream.Edge[float64]{Key: key, Src: e.src, Dst: e.dst}); err != nil {
			t.Fatal(err)
		}
		outT[i] = assoc.Triple[float64]{Row: key, Col: e.src, Val: 1}
		inT[i] = assoc.Triple[float64]{Row: key, Col: e.dst, Val: 1}
	}
	if len(ing.batch) >= 7 {
		t.Fatalf("accumulator did not auto-flush: %d buffered", len(ing.batch))
	}
	snap, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Edges != len(edges) {
		t.Fatalf("snapshot has %d edges, want %d", snap.Edges, len(edges))
	}
	res, err := Build(Request{Eout: assoc.FromTriples(outT, nil), Ein: assoc.FromTriples(inT, nil), Semiring: "+.*"})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Adjacency.Equal(res.Adjacency, func(a, b float64) bool { return a == b }) {
		t.Error("ingest-maintained adjacency != batch Build")
	}
	if !ing.Report().TheoremII1() {
		t.Error("+.* should satisfy the Theorem II.1 conditions")
	}
}

func TestIngestRejectsUnknownPair(t *testing.T) {
	if _, err := NewIngest(IngestOptions{Semiring: "no.such"}); err == nil {
		t.Error("unknown pair accepted")
	}
}

// A durable directory reopened with a different explicit shard count is
// refused in both directions across the 1↔N boundary (the one-shard
// layout and the N-shard layout share no file, so this used to come up
// silently empty), and a count left to GOMAXPROCS adopts the directory's.
func TestIngestReopenShardCountMismatchRefused(t *testing.T) {
	for _, tc := range []struct{ first, then int }{{1, 4}, {4, 1}, {2, 3}} {
		dir := t.TempDir()
		open := func(shards int) (*Ingest, error) {
			return NewIngest(IngestOptions{Semiring: "+.*", Shards: shards, DataDir: dir})
		}
		ing, err := open(tc.first)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range [][2]string{{"a", "b"}, {"b", "c"}} {
			if err := ing.Add(stream.Edge[float64]{Src: e[0], Dst: e[1]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if re, err := open(tc.then); err == nil {
			st := re.Store().Stats()
			re.Close()
			t.Errorf("%d→%d shards: reopened without error, showing %d of 2 edges", tc.first, tc.then, st.Edges)
		} else if !strings.Contains(err.Error(), "would re-partition the vertex space") {
			t.Errorf("%d→%d shards: err = %v, want the re-partition refusal", tc.first, tc.then, err)
		}
		re, err := open(-1)
		if err != nil {
			t.Fatalf("%d→GOMAXPROCS: %v", tc.first, err)
		}
		if st := re.Store().Stats(); st.Shards != tc.first || st.Edges != 2 {
			t.Errorf("%d→GOMAXPROCS: adopted %d shards with %d edges, want %d shards, 2 edges", tc.first, st.Shards, st.Edges, tc.first)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Ingest.Snapshot on several shards is the store's own snapshot — the
// adjacency gathered once per epoch vector — and builds nothing on top
// of it (the merged incidence logs stay behind Logs()).
func TestIngestSnapshotIsTheStoreSnapshot(t *testing.T) {
	ing, err := NewIngest(IngestOptions{Semiring: "+.*", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.AppendBatch([]stream.Edge[float64]{{Src: "a", Dst: "b"}, {Src: "b", Dst: "c"}, {Src: "c", Dst: "a"}}); err != nil {
		t.Fatal(err)
	}
	snap, err := ing.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ing.Store().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Adjacency != direct.Adjacency || snap.Adjacency.NNZ() != 3 || len(snap.Epochs) != 2 || snap.Epoch != snap.Epochs[0]+snap.Epochs[1] {
		t.Fatalf("Ingest.Snapshot = %+v, store snapshot %+v", snap, direct)
	}
	eout, ein, err := snap.Logs()
	if err != nil || eout.RowKeys().Len() != 3 || ein.RowKeys().Len() != 3 {
		t.Fatalf("Logs() = %v, %v, %v", eout, ein, err)
	}
}

// AppendBatch is the one concurrent write seam: producers append
// keyless batches while a reader pins snapshots, at one shard and two.
// Run under -race.
func TestIngestAppendBatchConcurrent(t *testing.T) {
	for _, shards := range []int{1, 2} {
		ing, err := NewIngest(IngestOptions{Semiring: "+.*", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		const producers, batches, per = 4, 20, 8
		var wg sync.WaitGroup
		errs := make([]error, producers+1)
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for b := 0; b < batches && errs[p] == nil; b++ {
					batch := make([]stream.Edge[float64], per)
					for i := range batch {
						batch[i] = stream.Edge[float64]{Src: fmt.Sprintf("v%02d", (p+b+i)%11), Dst: fmt.Sprintf("v%02d", (p*b+i)%11)}
					}
					errs[p] = ing.AppendBatch(batch)
				}
			}(p)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches && errs[producers] == nil; i++ {
				_, errs[producers] = ing.Store().Snapshot()
			}
		}()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%d shards: %v", shards, err)
			}
		}
		if snap, err := ing.Snapshot(); err != nil || snap.Edges != producers*batches*per {
			t.Fatalf("%d shards: %d edges (%v), want %d", shards, snap.Edges, err, producers*batches*per)
		}
	}
}
