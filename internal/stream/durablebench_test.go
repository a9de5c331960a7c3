package stream

import (
	"math/rand"
	"testing"

	"adjarray/internal/dataset"
	"adjarray/internal/wal"
)

// weightedBatches cuts the edges of an R-MAT graph into n auto-keyed
// batches of 256, each edge weighted on both sides: every value goes
// through the log's encoding and the checkpoint's value sections.
func weightedBatches(scale, n int, seed int64) [][]Edge[float64] {
	r := rand.New(rand.NewSource(seed))
	es := dataset.RMAT(r, scale, 8).Edges()
	out := make([][]Edge[float64], n)
	for b := range out {
		batch := make([]Edge[float64], 256)
		for i := range batch {
			e := es[(b*256+i)%len(es)]
			batch[i] = Edge[float64]{Src: e.Src, Dst: e.Dst,
				Out: float64(r.Intn(7)) + 0.5, HasOut: true, In: float64(r.Intn(7)) + 0.5, HasIn: true}
		}
		out[b] = batch
	}
	return out
}

// BenchmarkDurableAppend appends weighted batches of 256 edges over an
// R-MAT scale-12 vertex set to a one-shard durable store that does not
// fsync: one op is one Store.Append, the view append and the WAL record's
// encoding and write. Every 4,096 batches the store is closed and a fresh
// one opened, off the clock, so the log in memory stays bounded.
func BenchmarkDurableAppend(b *testing.B) {
	const roundBatches = 4096
	batches := weightedBatches(12, 64, 1)
	ops := plusTimes(b)
	open := func() *Store[float64] {
		st, err := Open(b.TempDir(), ops, 1, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	st := open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%roundBatches == 0 {
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			st = open()
			b.StartTimer()
		}
		if err := st.Append(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReopen reopens a one-shard durable store of ~262k unkeyed
// edges (R-MAT scale 15, edge factor 8) checkpointed, then 16 weighted
// batches of 256 edges in the WAL past the checkpoint: one op is the Open
// — checkpoint load and the tail's replay — and the Close.
func BenchmarkReopen(b *testing.B) {
	dir := checkpointedStore(b, 15, 8)
	ops := plusTimes(b)
	st, err := Open(dir, ops, 1, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range weightedBatches(15, 16, 2) {
		if err := st.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir, ops, 1, DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rec := st.Recovery()[0]; rec.Replayed != 16 {
			b.Fatalf("replayed %d records, want 16", rec.Replayed)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
