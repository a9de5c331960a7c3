package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		req, n, want int
	}{
		{4, 100, 4},
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{8, 3, 3},
		{8, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.req, c.n); got != c.want {
			t.Errorf("Workers(%d,%d) = %d, want %d", c.req, c.n, got, c.want)
		}
	}
}

func TestForGrainCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, grain := range []int{1, 3, 17, 1000, 5000} {
		n := 997 // prime, exercises ragged final chunk
		hits := make([]int32, n)
		ForGrain(n, 4, grain, func(lo, hi int) {
			if hi <= lo {
				t.Fatalf("empty range [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("grain=%d: index %d hit %d times", grain, i, h)
			}
		}
	}
}

func TestForGrainDegenerateInputs(t *testing.T) {
	ForGrain(0, 4, 10, func(lo, hi int) { t.Error("fn called for n=0") })
	hits := make([]int32, 5)
	ForGrain(5, 4, 0, func(lo, hi int) { // grain < 1 is clamped to 1
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

// Property: regardless of worker count and grain, the union of ranges
// is a partition of [0, n).
func TestPartitionProperty(t *testing.T) {
	f := func(nRaw uint16, wRaw, gRaw uint8) bool {
		n := int(nRaw % 2000)
		workers := int(wRaw%8) + 1
		grain := int(gRaw%64) + 1
		var total int64
		ForGrain(n, workers, grain, func(lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
		return total == int64(max(n, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
