package sparse

import (
	"reflect"
	"sync"
)

// Kernel scratch pooling. Mxm needs O(cols) scratch per span — a stamp
// array for both passes, a value accumulator for the numeric one.
// Allocating that per call is
// invisible for one-shot batch construction but dominates steady-state
// allocation when multiplications run continuously (the stream
// materialize fold, per-batch partial products, bench loops). The
// pools here make repeated kernels allocation-free once warm.
//
// Safety: a pooled stamp array carries stale stamps from earlier calls,
// so each box carries its own monotone `current` counter — a stamp is
// only ever compared against the box's counter, never trusted
// absolutely, so stale contents are indistinguishable from zeroed ones.
// Value accumulators likewise hold stale values, which are only read
// at slots whose stamp matches the current row — the same invariant the
// non-pooled kernels already relied on between rows of one call.
// Boxes are returned to the pool only after the kernel's output has
// been fully written to its own storage, so no pooled buffer is ever
// reachable from a result.

// stampBox is the stamp scratch: type-independent, one shared
// pool for every value-type instantiation.
type stampBox struct {
	stamp   []int // generation counts, see spa
	current int
	touched []int32
}

var stampPool = sync.Pool{New: func() any { return new(stampBox) }}

// getStampBox returns a stamp box with room for `cols` columns. Growth
// resets current: a fresh array is all zeros, and starting current at 0
// with a pre-increment on first use keeps stamps strictly positive.
// Ownership transfers to the caller; releaseKernelScratch is the paired
// Put.
//
//adjlint:pool-transfer
func getStampBox(cols int) *stampBox {
	b := stampPool.Get().(*stampBox)
	if cap(b.stamp) < cols {
		b.stamp = make([]int, cols)
		b.current = 0
	}
	b.stamp = b.stamp[:cols]
	return b
}

func putStampBox(b *stampBox) { stampPool.Put(b) }

// accBox is the numeric accumulator scratch, pooled per value type via
// valuePools (package-level generic vars are impossible; a sync.Map
// keyed by reflect.Type costs one lookup per span, amortized over the
// span's rows).
type accBox[V any] struct {
	acc []V
}

var valuePools sync.Map // reflect.Type → *sync.Pool of *accBox[V]

func accPoolFor[V any]() *sync.Pool {
	t := reflect.TypeOf((*V)(nil))
	if p, ok := valuePools.Load(t); ok {
		return p.(*sync.Pool)
	}
	p := &sync.Pool{New: func() any { return new(accBox[V]) }}
	actual, _ := valuePools.LoadOrStore(t, p)
	return actual.(*sync.Pool)
}

// getAccBox hands the box to the caller; releaseKernelScratch returns
// it.
//
//adjlint:pool-transfer
func getAccBox[V any](pool *sync.Pool, cols int) *accBox[V] {
	b := pool.Get().(*accBox[V])
	if cap(b.acc) < cols {
		b.acc = make([]V, cols)
	}
	b.acc = b.acc[:cols]
	return b
}

// pooledSPA assembles a numeric spa over a pooled stamp box and value
// box, continuing the box's stamp counter (earlier passes and calls
// advanced it; continuing rather than restarting keeps every stamp
// comparison unambiguous).
func pooledSPA[V any](sb *stampBox, vb *accBox[V]) *spa[V] {
	return &spa[V]{acc: vb.acc, stamp: sb.stamp, current: sb.current, touched: sb.touched[:0]}
}

// releaseKernelScratch returns the boxes to their pools, saving the
// advanced stamp counter and the touched backing for reuse.
func releaseKernelScratch[V any](pool *sync.Pool, sb *stampBox, s *spa[V], vb *accBox[V]) {
	sb.current = s.current
	sb.touched = s.touched[:0]
	pool.Put(vb)
	putStampBox(sb)
}

// int64Box pools the per-row flop prefix arrays of the flop-balanced
// scheduler.
type int64Box struct{ xs []int64 }

var int64Pool = sync.Pool{New: func() any { return new(int64Box) }}

// getInt64 hands the box to the caller; putInt64 is the paired Put.
//
//adjlint:pool-transfer
func getInt64(n int) *int64Box {
	b := int64Pool.Get().(*int64Box)
	if cap(b.xs) < n {
		b.xs = make([]int64, n)
	}
	b.xs = b.xs[:n]
	return b
}

func putInt64(b *int64Box) { int64Pool.Put(b) }
