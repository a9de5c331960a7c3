package stream

import (
	"fmt"
	"sync"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// avgOps is the canonical non-associative ⊕ used across the stream
// tests: (a+b)/2 is neither associative nor is 0 a ⊕-identity, so the
// strengthened guard rejects it outright.
func avgOps() semiring.Ops[float64] {
	return semiring.Ops[float64]{
		Name: "avg.*",
		Add:  func(a, b float64) float64 { return (a + b) / 2 },
		Mul:  func(a, b float64) float64 { return a * b },
		Zero: 0, One: 1,
		Equal: value.Float64Equal,
	}
}

// After the associativity guard rejects a batch, the view must still be
// fully usable: the rejected batch leaves no trace, Compact() succeeds
// and restores the exact sequential fold over the ACCEPTED log, and
// further valid appends keep working.
func TestCompactAfterGuardRejection(t *testing.T) {
	v := NewView(avgOps(), Options{CheckAssociative: true})

	// A batch whose values are all equal passes the sampled guard: every
	// probe triple folds to the same value, and (v ⊕ 0) happens to need
	// no identity here because the batch is the first (nothing to merge
	// against)… except the guard is value-based, so it must reject 1s
	// too — (1 ⊕ 0)/2 = 0.5 ≠ 1 breaks the identity hypothesis.
	if err := v.Append([]Edge[float64]{Weighted("k1", "a", "b", 1.0, 1)}); err == nil {
		t.Fatal("guard accepted avg ⊕ despite its non-identity Zero")
	}
	if st := v.Stats(); st.Edges != 0 || st.Epoch != 0 {
		t.Fatalf("rejected batch left state behind: %+v", st)
	}

	// Compact on the untouched (empty) view must be a clean no-op.
	if err := v.Compact(); err != nil {
		t.Fatalf("Compact after rejection: %v", err)
	}
	if st := v.Stats(); !st.Exact || st.Edges != 0 {
		t.Fatalf("compacted empty view incoherent: %+v", st)
	}

	// The unguarded view ingests the same pair, diverges across a
	// materialize boundary, is rejected… then Compact recovers exactness
	// and the NEXT append still works.
	u := NewView(avgOps(), Options{})
	batches := [][]Edge[float64]{
		{Weighted("k1", "a", "b", 1.0, 1)},
		{Weighted("k2", "a", "b", 3.0, 1), Weighted("k3", "a", "b", 5.0, 1)},
	}
	for _, b := range batches {
		if err := u.Append(b); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Snapshot(); err != nil { // force a materialize boundary
			t.Fatal(err)
		}
	}
	snap, err := u.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Exact {
		t.Fatal("re-associated avg fold still claims exactness")
	}
	if err := u.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	snap, err = u.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Exact {
		t.Fatal("Compact did not restore exactness")
	}
	// ((1 ⊕ 3) ⊕ 5) = ((1+3)/2 + 5)/2 = 3.5 — the sequential fold.
	if got, _ := snap.Adjacency.At("a", "b"); got != 3.5 {
		t.Fatalf("compacted fold = %v, want 3.5", got)
	}
	if err := u.Append([]Edge[float64]{Weighted("k4", "b", "a", 2.0, 1)}); err != nil {
		t.Fatalf("append after Compact: %v", err)
	}
	if st := u.Stats(); st.Edges != 4 {
		t.Fatalf("post-compact append lost edges: %+v", st)
	}
}

// Snapshot isolation under concurrent Append and Compact — run under
// -race. Snapshots captured mid-ingest are deep-frozen (their triples
// must not change no matter how much the view advances), and the final
// state equals the one-shot batch construction.
func TestSnapshotIsolationUnderConcurrentAppend(t *testing.T) {
	ops := semiring.PlusTimes()
	const edges, batch = 600, 20
	all := make([]Edge[float64], edges)
	for i := range all {
		all[i] = Weighted(
			fmt.Sprintf("e%06d", i),
			fmt.Sprintf("v%02d", (i*7)%16),
			fmt.Sprintf("v%02d", (i*13)%16),
			1, float64(1+i%3),
		)
	}
	v := NewView(ops, Options{})

	type frozen struct {
		epoch   int
		triples []assoc.Triple[float64]
		snap    Snapshot[float64]
	}
	var mu sync.Mutex
	var captured []frozen

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := v.Snapshot()
				if err != nil {
					panic(err)
				}
				mu.Lock()
				if len(captured) < 64 {
					captured = append(captured, frozen{
						epoch:   snap.Epoch,
						triples: snap.Adjacency.Triples(),
						snap:    snap,
					})
				}
				mu.Unlock()
			}
		}()
	}
	// A compactor races the readers and the writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := v.Compact(); err != nil {
				panic(err)
			}
		}
	}()
	for lo := 0; lo < edges; lo += batch {
		if err := v.Append(all[lo : lo+batch]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Every captured snapshot must still render exactly what it did at
	// capture time.
	for i, f := range captured {
		now := f.snap.Adjacency.Triples()
		if len(now) != len(f.triples) {
			t.Fatalf("snapshot %d (epoch %d) changed size: %d -> %d", i, f.epoch, len(f.triples), len(now))
		}
		for j := range now {
			if now[j] != f.triples[j] {
				t.Fatalf("snapshot %d (epoch %d) mutated at %d: %+v -> %+v", i, f.epoch, j, f.triples[j], now[j])
			}
		}
	}

	// And the live view equals the one-shot construction.
	outT := make([]assoc.Triple[float64], edges)
	inT := make([]assoc.Triple[float64], edges)
	for i, e := range all {
		outT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: e.Out}
		inT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: e.In}
	}
	want, err := assoc.Correlate(assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil), ops, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Adjacency.Equal(want, func(a, b float64) bool { return value.Float64Equal(a, b) }) {
		t.Error("concurrent ingest + compaction diverged from the batch construction")
	}
}

// Compact changes no epoch, so the store must not answer the next
// Snapshot from its per-vector cache: under a non-associative ⊕ the
// rebuilt adjacency differs from the incrementally folded one.
func TestStoreSnapshotAfterCompactIsFresh(t *testing.T) {
	for _, shards := range []int{1, 2} {
		st := memStore(t, semiring.PlusTimes(), shards, Options{})
		if err := st.Append([]Edge[float64]{{Src: "a", Dst: "b"}, {Src: "b", Dst: "c"}}); err != nil {
			t.Fatal(err)
		}
		before := mustShardSnap(t, st)
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		after := mustShardSnap(t, st)
		if after.g == before.g {
			t.Errorf("%d shards: Snapshot after Compact came from the cache", shards)
		}
		if !after.Adjacency.Equal(before.Adjacency, eqF) || after.Epoch != before.Epoch {
			t.Errorf("%d shards: Compact changed the +.* adjacency or the epoch", shards)
		}
	}
}
