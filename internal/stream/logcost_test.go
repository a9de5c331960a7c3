package stream

import (
	"fmt"
	"runtime"
	"testing"
)

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
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := NewView(plusTimes(t), Options{})
	for n := 0; n < edges; n += len(batch) {
		if next != nil {
			next(batch, n)
		}
		if err := v.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(edges)
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

// A steady-state unkeyed append — every vertex known, the log columns and
// the backlog with room in hand — allocates nothing: no key is formatted,
// no key string made.
func TestAppendAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	v := NewView(plusTimes(t), Options{PendingBudget: 1 << 30})
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
}
