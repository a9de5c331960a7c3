package stream

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// unkeyedBatch is a batch of n unkeyed, unweighted edges over a 64-vertex
// universe — what adjserve's ingest sends.
func unkeyedBatch(n int) []Edge[float64] {
	batch := make([]Edge[float64], n)
	for i := range batch {
		batch[i] = Edge[float64]{Src: fmt.Sprintf("v%02d", i%64), Dst: fmt.Sprintf("v%02d", (i*7+i/64)%64)}
	}
	return batch
}

// retainedPerEdge appends edges edges, a batch of 256 at a time, to a new
// view and returns the live heap bytes the view holds per edge. next
// fills the batch about to be appended, whose first edge is the n-th.
func retainedPerEdge(t testing.TB, edges int, next func(batch []Edge[float64], n int)) float64 {
	t.Helper()
	batch := unkeyedBatch(256)
	before := liveHeap()
	v := NewView(plusTimes(t))
	for n := 0; n < edges; n += len(batch) {
		if next != nil {
			next(batch, n)
		}
		if err := v.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(v)
	return float64(after-before) / float64(edges)
}

// What the log costs in memory, per edge, at a million edges. An unkeyed
// unit edge is its two endpoint ids — 8 bytes, plus what the doubling
// growth of the two id columns has in hand at this length — and nothing
// for a key that is its arrival order or for weights that are One. An
// edge that spells out its key and both weights costs what it always has:
// PR 20's figure for this arm, measured by this function at that commit,
// is the constant below.
func TestLogBytesPerEdge(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under the race detector")
	}
	const edges = 1_000_000
	if got := retainedPerEdge(t, edges, nil); got > 12 {
		t.Errorf("an unkeyed unit edge retains %.1f B, want at most 12", got)
	} else {
		t.Logf("unkeyed unit edges: %.1f B each", got)
	}
	const parent = 58.2 // B per edge at 6e719a2, where an unkeyed unit edge retained 55.6
	got := retainedPerEdge(t, edges, func(batch []Edge[float64], n int) {
		for i := range batch {
			batch[i].Key = fmt.Sprintf("e%012d", n+i)
			batch[i].Out, batch[i].In, batch[i].HasOut, batch[i].HasIn = 2, 3, true, true
		}
	})
	t.Logf("keyed weighted edges: %.1f B each (PR 20: %.1f)", got, parent)
	if got > 1.05*parent || got < 0.95*parent {
		t.Errorf("a keyed weighted edge retains %.1f B; it retained %.1f before keys and weights could be implicit", got, parent)
	}
}

// A steady-state unkeyed append — every vertex known, the log columns
// with room in hand — allocates nothing: no key is formatted, no key
// string made, and nothing is folded, since nobody reads.
func TestAppendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	v := NewView(plusTimes(t))
	batch := unkeyedBatch(256)
	for i := 0; i < 520; i++ { // past a doubling of every column, so the runs below meet none
		if err := v.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := v.Append(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady-state unkeyed append of %d edges allocates %.0f times, want 0", len(batch), allocs)
	}
	if st := v.Stats(); st.Folds != 0 || st.PendingNNZ != st.Edges {
		t.Errorf("%d folds ran and %d of %d edges are pending though nothing read the view", st.Folds, st.PendingNNZ, st.Edges)
	}
}

// The first fold of a bulk load is the size of the log; the buffers it
// needs — the suffix's endpoints as positions, One for the columns the log
// does not hold, the fold's output — must not stay with the view for the
// 32-edge folds that follow. After an unread 100k-edge load, a read, one
// small batch and a second read, the view holds its log, main (twice at
// most: the merge's standing double buffer) and the 128-vertex universe —
// nothing sized by the first fold, which alone would be 8 B per loaded
// edge, and 36 B with a backlog copy and a recycled fold array kept too.
func TestBootstrapFoldLeavesNoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under the race detector")
	}
	const edges, per = 100_000, 500
	r := rand.New(rand.NewSource(11))
	name := make([]string, 128)
	for i := range name {
		name[i] = fmt.Sprintf("v%03d", i)
	}
	load := make([]Edge[float64], edges+32)
	for i := range load {
		load[i] = Edge[float64]{Src: name[r.Intn(len(name))], Dst: name[r.Intn(len(name))]}
	}
	before := liveHeap()
	v := NewView(plusTimes(t))
	for lo := 0; lo < edges; lo += per {
		if err := v.Append(load[lo : lo+per]); err != nil {
			t.Fatal(err)
		}
	}
	if st := v.Stats(); st.Folds != 0 || st.PendingNNZ != edges {
		t.Fatalf("%d folds, %d pending before the first read", st.Folds, st.PendingNNZ)
	}
	if _, err := v.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := v.Append(load[edges:]); err != nil {
		t.Fatal(err)
	}
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	if st := v.Stats(); st.Folds != 2 {
		t.Fatalf("%d folds for two reads", st.Folds)
	}
	m := snap.Adjacency.Matrix()
	log := uint64(4 * (cap(v.srcID) + cap(v.dstID)))
	main := uint64(12*m.NNZ() + 4*(m.Rows()+1))
	got, bound := after-before, log+2*main+64<<10
	t.Logf("retained %d KiB; log %d KiB, main %d KiB (%d entries)", got>>10, log>>10, main>>10, m.NNZ())
	if got > bound {
		t.Errorf("the view retains %d KiB after its second fold, want at most %d (log %d + 2 × main %d + 64): scratch sized by the first fold stayed",
			got>>10, bound>>10, log>>10, main>>10)
	}
	runtime.KeepAlive(load)
}

// The append scratch stages a batch's endpoints — the caller's strings: a
// request body, a preload read — and holds none of them once Append
// returns, committed or refused. Otherwise a small batch after a large
// one keeps the large one's strings, and what they point into, alive.
func TestAppendStagingHoldsNoCallerStrings(t *testing.T) {
	v := NewView(plusTimes(t))
	staged := func(label string) {
		t.Helper()
		for _, col := range [][]string{v.scr.srcs, v.scr.dsts} {
			for i, k := range col[:cap(col)] {
				if k != "" {
					t.Fatalf("%s: staging slot %d still holds %q", label, i, k)
				}
			}
		}
	}
	if err := v.Append(unkeyedBatch(256)); err != nil {
		t.Fatal(err)
	}
	staged("after a batch of 256")
	if err := v.Append(unkeyedBatch(3)); err != nil {
		t.Fatal(err)
	}
	staged("after a batch of 3")
	refused := []Edge[float64]{{Key: "k2", Src: "a", Dst: "b"}, {Key: "k1", Src: "c", Dst: "d"}}
	if err := v.Append(refused); err == nil {
		t.Fatal("a batch whose keys descend was taken")
	}
	staged("after a refused batch")
}
