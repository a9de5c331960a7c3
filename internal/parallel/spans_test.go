package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func prefixOf(w []int64) []int64 {
	p := make([]int64, len(w)+1)
	for i, x := range w {
		p[i+1] = p[i] + x
	}
	return p
}

func checkPartition(t *testing.T, b []int, n, spans int) {
	t.Helper()
	if len(b) != spans+1 {
		t.Fatalf("len(bounds)=%d, want %d", len(b), spans+1)
	}
	if b[0] != 0 || b[spans] != n {
		t.Fatalf("bounds endpoints %d..%d, want 0..%d", b[0], b[spans], n)
	}
	for s := 1; s <= spans; s++ {
		if b[s] < b[s-1] {
			t.Fatalf("bounds not monotone at %d: %v", s, b)
		}
	}
}

func TestBalancedSpansUniform(t *testing.T) {
	w := make([]int64, 100)
	for i := range w {
		w[i] = 7
	}
	b := BalancedSpans(prefixOf(w), 4)
	checkPartition(t, b, 100, 4)
	for s := 0; s < 4; s++ {
		if size := b[s+1] - b[s]; size < 20 || size > 30 {
			t.Fatalf("uniform weights split unevenly: %v", b)
		}
	}
}

// TestBalancedSpansSkew is the R-MAT-shaped case even-row splitting
// loses: one hub row carries half the total work. The hub's span may be
// heavy (spans never split an index), but the REMAINING work must still
// spread across the other spans instead of piling onto the hub's
// neighbors.
func TestBalancedSpansSkew(t *testing.T) {
	w := make([]int64, 1000)
	for i := range w {
		w[i] = 1
	}
	w[0] = 1000 // hub first: everything after must split evenly
	p := prefixOf(w)
	b := BalancedSpans(p, 4)
	checkPartition(t, b, 1000, 4)
	// Spans 2..4 share the 999 unit rows (span 1 is the hub + change):
	// no span may be more than ~2x its fair share of the residue.
	for s := 1; s < 4; s++ {
		weight := p[b[s+1]] - p[b[s]]
		if weight > 2*2000/4 {
			t.Fatalf("span %d carries %d of 2000 total: %v", s, weight, b)
		}
	}
}

func TestBalancedSpansEdgeCases(t *testing.T) {
	// Empty input.
	b := BalancedSpans([]int64{0}, 4)
	checkPartition(t, b, 0, 4)
	// Zero weights fall back to an even split.
	b = BalancedSpans(prefixOf(make([]int64, 8)), 4)
	checkPartition(t, b, 8, 4)
	if b[2] != 4 {
		t.Fatalf("zero-weight split not even: %v", b)
	}
	// One span swallows everything.
	b = BalancedSpans(prefixOf([]int64{5, 5, 5}), 1)
	checkPartition(t, b, 3, 1)
	// More spans than indices: trailing spans are empty, coverage exact.
	b = BalancedSpans(prefixOf([]int64{1, 1}), 8)
	checkPartition(t, b, 2, 8)
}

func TestBalancedSpansRandomCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(50)
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(r.Intn(20))
		}
		spans := 1 + r.Intn(8)
		checkPartition(t, BalancedSpans(prefixOf(w), spans), n, spans)
	}
}

func TestForSpansCoversEachIndexOnce(t *testing.T) {
	w := make([]int64, 97)
	for i := range w {
		w[i] = int64(i % 5)
	}
	b := BalancedSpans(prefixOf(w), 5)
	var hits [97]atomic.Int32
	ForSpans(b, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d hit %d times", i, hits[i].Load())
		}
	}
}

func TestForSpansEmpty(t *testing.T) {
	called := false
	ForSpans([]int{0, 0, 0}, func(_, _ int) { called = true })
	if called {
		t.Fatal("fn called for empty spans")
	}
}
