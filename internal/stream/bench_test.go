package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/semiring"
)

// s12Workload builds the scaling-experiment graph (R-MAT scale 12, edge
// factor 8 — 4096 vertices, 32768 edges) split into a warm view of the
// 99% base log — appended as one batch and folded — and a stream of 1%
// delta batches with monotonically continuing edge keys.
func s12Workload(b *testing.B, deltas int) (warm *View[float64], batches [][]Edge[float64]) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	g := dataset.RMAT(r, 12, 8)
	es := g.Edges()
	per := len(es) / 100 // one percent
	base := es[:len(es)-per]
	delta := es[len(es)-per:]

	baseEdges := make([]Edge[float64], len(base))
	for i, e := range base {
		baseEdges[i] = Edge[float64]{Key: e.Key, Src: e.Src, Dst: e.Dst}
	}
	warm = NewView(semiring.PlusTimes())
	if err := warm.Append(baseEdges); err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Snapshot(); err != nil {
		b.Fatal(err)
	}

	// Delta batches replay the held-out 1% with fresh keys continuing
	// past the log, re-sampling endpoints for batches beyond the first.
	batches = make([][]Edge[float64], deltas)
	seq := len(es)
	for d := range batches {
		batch := make([]Edge[float64], per)
		for i := range batch {
			var src, dst string
			if d == 0 {
				src, dst = delta[i].Src, delta[i].Dst
			} else {
				src, dst = delta[r.Intn(per)].Src, delta[r.Intn(per)].Dst
			}
			batch[i] = Weighted(fmt.Sprintf("e%08d", seq), src, dst, 1.0, 1)
			seq++
		}
		batches[d] = batch
	}
	return warm, batches
}

// BenchmarkStreamAppendS12 measures one 1% delta-batch Append against a
// warm view of the s12 graph — the incremental arm of the acceptance
// criterion. The log grows across iterations (appends are destructive),
// which only makes the measured cost pessimistic.
func BenchmarkStreamAppendS12(b *testing.B) {
	v, batches := s12Workload(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Append(batches[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamAppendUnkeyed is the serving workloads' append: batches
// of 256 edges with no key and no weight over known vertices, on a view
// that starts empty. Beside the time it reports what the view retains per
// logged edge (the id columns' growth slack included, so it steps down as
// b.N approaches a power of two).
func BenchmarkStreamAppendUnkeyed(b *testing.B) {
	batch := unkeyedBatch(256)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := NewView(semiring.PlusTimes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(b.N*len(batch)), "B-retained/edge")
}

// BenchmarkFullRebuildS12 is the batch arm: what serving the same delta
// would cost with a full Correlate rebuild per batch.
func BenchmarkFullRebuildS12(b *testing.B) {
	v, batches := s12Workload(b, 1)
	if err := v.Append(batches[0]); err != nil {
		b.Fatal(err)
	}
	snap, err := v.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	eout, ein, err := snap.Logs()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assoc.Correlate(eout, ein, semiring.PlusTimes(), assoc.MulOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot verifies the O(1) read-view claim.
func BenchmarkSnapshot(b *testing.B) {
	v, _ := s12Workload(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s, err := v.Snapshot(); err != nil || s.Edges == 0 {
			b.Fatal("empty snapshot", err)
		}
	}
}

// BenchmarkIngestEndToEnd streams the whole s12 graph through Append in
// 1% batches, the sustained-ingest figure.
func BenchmarkIngestEndToEnd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := dataset.RMAT(r, 12, 8)
	es := g.Edges()
	per := len(es) / 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := NewView(semiring.PlusTimes())
		for lo := 0; lo < len(es); lo += per {
			hi := lo + per
			if hi > len(es) {
				hi = len(es)
			}
			batch := make([]Edge[float64], hi-lo)
			for j, e := range es[lo:hi] {
				batch[j] = Edge[float64]{Key: e.Key, Src: e.Src, Dst: e.Dst}
			}
			if err := v.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMaterializeFold measures one fold of 20 unread batches into
// the main adjacency — the Snapshot-time cost.
func BenchmarkMaterializeFold(b *testing.B) {
	v, batches := s12Workload(b, b.N*20)
	warm := v.Stats().Folds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for d := 0; d < 20; d++ {
			if err := v.Append(batches[i*20+d]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := v.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if folds := v.Stats().Folds - warm; folds != b.N {
		b.Fatalf("%d folds for %d snapshots: an append folded", folds, b.N)
	}
}

// BenchmarkStreamAppendGrowingUniverse is the cold ingest every other
// append benchmark bootstraps away: R-MAT scale 14 (131,072 keyless
// edges) from an empty view in 512-edge batches, so nearly every batch
// introduces vertices — adjserve's preload. One op is the whole ingest;
// the shards2 arm scatters the same batches through a two-shard Store.
func BenchmarkStreamAppendGrowingUniverse(b *testing.B) {
	es := dataset.RMAT(rand.New(rand.NewSource(1)), 14, 8).Edges()
	var batches [][]Edge[float64]
	for lo := 0; lo < len(es); lo += 512 {
		batch := make([]Edge[float64], 0, 512)
		for _, e := range es[lo:min(lo+512, len(es))] {
			batch = append(batch, Edge[float64]{Src: e.Src, Dst: e.Dst})
		}
		batches = append(batches, batch)
	}
	ingest := func(b *testing.B, fresh func() func([]Edge[float64]) error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			appendTo := fresh()
			for _, batch := range batches {
				if err := appendTo(batch); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("view", func(b *testing.B) {
		ingest(b, func() func([]Edge[float64]) error {
			return NewView(semiring.PlusTimes()).Append
		})
	})
	b.Run("shards2", func(b *testing.B) {
		ingest(b, func() func([]Edge[float64]) error {
			s, err := Open("", semiring.PlusTimes(), 2, DurableOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return s.Append
		})
	})
}

// BenchmarkShardedAppendScaling is the one timing gate CI keeps: 4
// producers push 40 batches of 1% of rmat-s14 (keyless edges, adjserve's
// write shape) through an in-memory Store at 1 shard and at 4, best of 2
// runs each, and the 1-shard per-batch time over the 4-shard one — the
// aggregate append speedup sharding buys — must reach 2×. A ratio of two
// arms of one run on one machine cancels the machine's speed, which is
// why this may gate where no absolute timing does. It needs four cores
// to mean anything: below that it reports the ratio and asserts nothing.
// CI runs it with GOMAXPROCS=4 -benchtime 1x; `go test ./...` never does.
func BenchmarkShardedAppendScaling(b *testing.B) {
	const (
		producers = 4
		deltas    = 40
		reps      = 2
		required  = 2.0
	)
	es := dataset.RMAT(rand.New(rand.NewSource(1)), 14, 8).Edges()
	per := len(es) / 100
	// One set of batches, dealt round-robin to the producers, for both
	// shard counts and all reps: Append never writes its argument.
	sg := rand.New(rand.NewSource(3))
	lists := make([][][]Edge[float64], producers)
	for d := 0; d < deltas; d++ {
		batch := make([]Edge[float64], per)
		for i := range batch {
			e := es[sg.Intn(len(es))]
			batch[i] = Weighted("", e.Src, e.Dst, 1.0, 1)
		}
		lists[d%producers] = append(lists[d%producers], batch)
	}
	perBatch := func(shards int) time.Duration {
		var best time.Duration
		for rep := 0; rep < reps; rep++ {
			sv, err := Open("", semiring.PlusTimes(), shards, DurableOptions{})
			if err != nil {
				b.Fatal(err)
			}
			errs := make([]error, producers)
			var wg sync.WaitGroup
			// Each timed section starts from a collected heap, or an arm
			// pays for collecting the garbage of the one before it.
			runtime.GC()
			start := time.Now()
			for p := range lists {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, batch := range lists[p] {
						if errs[p] = sv.Append(batch); errs[p] != nil {
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			if err := errors.Join(append(errs, sv.Close())...); err != nil {
				b.Fatal(err)
			}
			if rep == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best / deltas
	}
	var one, four time.Duration
	for i := 0; i < b.N; i++ {
		one, four = perBatch(1), perBatch(4)
	}
	ratio := float64(one) / float64(four)
	b.ReportMetric(float64(one.Microseconds()), "µs/batch@1shard")
	b.ReportMetric(float64(four.Microseconds()), "µs/batch@4shards")
	b.ReportMetric(ratio, "x@4shards")
	if runtime.NumCPU() >= 4 && runtime.GOMAXPROCS(0) >= 4 && ratio < required {
		b.Fatalf("aggregate append speedup at 4 shards is %.2fx, want >= %.1fx", ratio, required)
	}
}
