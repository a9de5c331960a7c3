package stream

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/iofault"
	"adjarray/internal/semiring"
	"adjarray/internal/wal"
)

func mustShardSnap[V any](t *testing.T, sv *Store[V]) StoreSnapshot[V] {
	t.Helper()
	ss, err := sv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func mustAdj[V any](t *testing.T, ss StoreSnapshot[V]) *assoc.Array[V] {
	t.Helper()
	if ss.Adjacency == nil {
		t.Fatal("snapshot carries no adjacency")
	}
	return ss.Adjacency
}

// The tentpole property: a sharded replay of any split sequence is
// bit-identical to the single-view replay AND the one-shot batch
// construction, for every associative registry pair and several shard
// counts (including 1, the degenerate routing).
func TestShardedEqualsSingleViewAcrossPairsAndSplits(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, ops := range semiring.Figure3Pairs() {
		entry, ok := semiring.Lookup(ops.Name)
		if !ok {
			t.Fatalf("pair %q not registered", ops.Name)
		}
		weights := nonZero(entry.Sample, ops)
		for _, shards := range []int{1, 2, 3, 5} {
			edges := randomEdges(r, 70, 11, weights)
			want := oneShot(t, edges, ops)

			single := NewView(ops)
			sv := memStore(t, ops, shards)
			for lo := 0; lo < len(edges); {
				hi := lo + 1 + r.Intn(13)
				if hi > len(edges) {
					hi = len(edges)
				}
				if err := single.Append(edges[lo:hi]); err != nil {
					t.Fatalf("%s single append: %v", ops.Name, err)
				}
				batch := make([]Edge[float64], hi-lo)
				copy(batch, edges[lo:hi])
				if err := sv.Append(batch); err != nil {
					t.Fatalf("%s/%d shards append: %v", ops.Name, shards, err)
				}
				// Snapshot mid-stream too: pins per-shard epochs and
				// forces materialization at interior boundaries.
				if hi < len(edges) && r.Intn(3) == 0 {
					mustShardSnap(t, sv)
				}
				lo = hi
			}
			got := mustAdj(t, mustShardSnap(t, sv))
			ref := mustSnap(t, single).Adjacency
			if !got.Equal(want, eqF) {
				t.Errorf("%s/%d shards: sharded != one-shot batch", ops.Name, shards)
			}
			if !got.Equal(ref, eqF) {
				t.Errorf("%s/%d shards: sharded != single view", ops.Name, shards)
			}
		}
	}
}

// The gathered incidence logs span the union edge-key universe in
// ascending key order — exactly the single view's log layout.
func TestShardedLogsMatchSingleView(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ops := semiring.PlusTimes()
	edges := randomEdges(r, 90, 9, []float64{1, 2, 5})

	single := NewView(ops)
	sv := memStore(t, ops, 4)
	if err := single.Append(edges); err != nil {
		t.Fatal(err)
	}
	if err := sv.Append(append([]Edge[float64](nil), edges...)); err != nil {
		t.Fatal(err)
	}
	ref := mustSnap(t, single)
	eout, ein, err := mustShardSnap(t, sv).Logs()
	if err != nil {
		t.Fatal(err)
	}
	refOut, refIn := mustLogs(t, ref)
	if !eout.Equal(refOut, eqF) {
		t.Error("merged Eout != single-view Eout")
	}
	if !ein.Equal(refIn, eqF) {
		t.Error("merged Ein != single-view Ein")
	}
	merged := flatSnap(t, sv)
	if merged.Edges != ref.Edges {
		t.Errorf("merged Edges = %d, want %d", merged.Edges, ref.Edges)
	}
}

// Concurrent producers with auto-assigned keys: the final adjacency
// must equal the one-shot construction over the edge multiset. The
// algebra is +.*, so the fold is order-independent and the only thing
// under test is routing, per-shard locking, and the gather. Run with
// -race to make the locking claims meaningful.
func TestShardedConcurrentAppendMatchesBatch(t *testing.T) {
	ops := semiring.PlusTimes()
	const producers, batches, per = 4, 12, 16
	sv := memStore(t, ops, 3)

	all := make([][]Edge[float64], producers)
	for p := range all {
		r := rand.New(rand.NewSource(int64(100 + p)))
		for b := 0; b < batches; b++ {
			batch := make([]Edge[float64], per)
			for i := range batch {
				batch[i] = Weighted("", // auto key
					fmt.Sprintf("v%03d", r.Intn(17)),
					fmt.Sprintf("v%03d", r.Intn(17)), 1.0, 1.0)
			}
			all[p] = append(all[p], batch...)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]Edge[float64], per)
				copy(batch, all[p][b*per:(b+1)*per])
				if err := sv.Append(batch); err != nil {
					errs[p] = err
					return
				}
				if b%5 == 0 {
					if _, err := sv.Snapshot(); err != nil {
						errs[p] = err
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("producer %d: %v", p, err)
		}
	}

	// Keys differ between arms (auto vs explicit), so compare the
	// adjacency, which never depends on edge keys.
	var flat []Edge[float64]
	for p := range all {
		flat = append(flat, all[p]...)
	}
	for i := range flat {
		flat[i].Key = fmt.Sprintf("e%06d", i)
	}
	want := oneShot(t, flat, ops)
	ss := mustShardSnap(t, sv)
	if ss.Edges != producers*batches*per {
		t.Fatalf("Edges = %d, want %d", ss.Edges, producers*batches*per)
	}
	if !mustAdj(t, ss).Equal(want, eqF) {
		t.Error("concurrent sharded ingest != one-shot batch")
	}

	// Append leaves the caller's slice untouched: generated keys live in
	// the shard's view, at one shard (no scatter copy) as at two.
	for _, shards := range []int{1, 2} {
		st := memStore(t, ops, shards)
		batch := []Edge[float64]{{Src: "a", Dst: "b"}, {Src: "b", Dst: "c"}, {Src: "c", Dst: "a"}}
		if err := st.Append(batch); err != nil {
			t.Fatal(err)
		}
		for i, e := range batch {
			if e.Key != "" {
				t.Errorf("%d shards: Append wrote key %q into the caller's batch[%d]", shards, e.Key, i)
			}
		}
	}
}

// Snapshots are cached per epoch vector: unchanged vector returns the
// same snapshot (sharing its lazily merged adjacency); an append to one
// shard bumps exactly that vector component.
func TestShardedSnapshotEpochVectorAndCaching(t *testing.T) {
	ops := semiring.PlusTimes()
	sv := memStore(t, ops, 3)
	if err := sv.Append([]Edge[float64]{
		Weighted("e0", "a", "b", 1.0, 1.0),
		Weighted("e1", "b", "c", 1.0, 1.0),
		Weighted("e2", "c", "d", 1.0, 1.0),
	}); err != nil {
		t.Fatal(err)
	}
	s1 := mustShardSnap(t, sv)
	if len(s1.Epochs) != 3 {
		t.Fatalf("epoch vector length %d, want 3", len(s1.Epochs))
	}
	if s2 := mustShardSnap(t, sv); s2.Adjacency != s1.Adjacency || s2.g != s1.g {
		t.Error("unchanged epoch vector must return the cached snapshot")
	}

	target := sv.ShardFor("zz")
	if err := sv.Append([]Edge[float64]{Weighted("e3", "zz", "a", 1.0, 1.0)}); err != nil {
		t.Fatal(err)
	}
	s3 := mustShardSnap(t, sv)
	if s3.g == s1.g {
		t.Fatal("append must invalidate the cached snapshot")
	}
	for i := range s3.Epochs {
		want := s1.Epochs[i]
		if i == target {
			want++
		}
		if s3.Epochs[i] != want {
			t.Errorf("epoch[%d] = %d, want %d", i, s3.Epochs[i], want)
		}
	}
	// The older snapshot stays pinned at its vector.
	if got := mustAdj(t, s1).NNZ(); got != 3 {
		t.Errorf("pinned snapshot mutated: nnz %d, want 3", got)
	}
}

// OwnerSnapshot is the read for one row: it answers from the owning
// shard exactly what the gathered adjacency holds for that row, folds no
// shard — not even the owner, whose unfolded edges it reads beside main —
// caches no gather, and reports the owner's pinned epoch beside the
// siblings' current ones.
func TestOwnerSnapshotPinsOneShard(t *testing.T) {
	ops := semiring.PlusTimes()
	for _, shards := range []int{1, 2, 3, 5} {
		sv := memStore(t, ops, shards)
		edges := randomEdges(rand.New(rand.NewSource(int64(shards))), 60, 9, []float64{1, 2, 3})
		if err := sv.Append(edges[:40]); err != nil {
			t.Fatal(err)
		}
		mustShardSnap(t, sv) // folds every shard
		if err := sv.Append(edges[40:]); err != nil {
			t.Fatal(err)
		}
		src := edges[len(edges)-1].Src
		owner := sv.ShardFor(src)
		before := sv.Stats()
		sn, epochs, err := sv.OwnerSnapshot(src)
		if err != nil {
			t.Fatal(err)
		}
		after := sv.Stats()
		if sv.cached.g != nil {
			t.Errorf("%d shards: a point read cached a gather", shards)
		}
		for i := range epochs {
			if epochs[i] != after.Epochs[i] {
				t.Errorf("%d shards: epochs[%d] = %d, want the shard's epoch %d", shards, i, epochs[i], after.Epochs[i])
			}
			if after.PerShard[i].PendingNNZ != before.PerShard[i].PendingNNZ || after.PerShard[i].Folds != before.PerShard[i].Folds {
				t.Errorf("%d shards: shard %d folded for a point read of shard %d", shards, i, owner)
			}
		}
		if epochs[owner] != sn.Epoch || sn.Suffix() != before.PerShard[owner].PendingNNZ || sn.Suffix() == 0 || sn.Folded {
			t.Errorf("%d shards: owner pinned at %d over %d unfolded edges (folded %v); the vector says %d, the shard held %d",
				shards, sn.Epoch, sn.Suffix(), sn.Folded, epochs[owner], before.PerShard[owner].PendingNNZ)
		}
		// The fold-first read this one replaced answers the same, at the
		// same vector.
		ref, refEpochs, err := referenceOwnerSnapshot(sv, src)
		if err != nil || !slices.Equal(refEpochs, epochs) || !sameRows(pointRow(sn, src), rowOf(ref.Adjacency, src)) {
			t.Errorf("%d shards: point row %v at %v; the folded owner holds %v at %v (%v)",
				shards, pointRow(sn, src), epochs, rowOf(ref.Adjacency, src), refEpochs, err)
		}
		// The owner's row is the whole row: every cell of it reads the same
		// from the owner's pin and from the gather of every shard.
		whole := mustAdj(t, mustShardSnap(t, sv))
		var want []assoc.Triple[float64]
		whole.Iterate(func(r, c string, v float64) {
			if r != src {
				return
			}
			want = append(want, assoc.Triple[float64]{Row: r, Col: c, Val: v})
			if got, ok := sn.At(r, c); !ok || got != v {
				t.Errorf("%d shards: owner holds (%q,%q) = %v,%v; the gather holds %v", shards, r, c, got, ok, v)
			}
		})
		if got := pointRow(sn, src); len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%d shards: the owner's row reads %v, the gathered row %v", shards, got, want)
		}
	}
}

// Stats aggregates per-shard counters; edge totals and epoch vector
// agree with the snapshot.
func TestShardedStats(t *testing.T) {
	ops := semiring.PlusTimes()
	sv := memStore(t, ops, 2)
	edges := randomEdges(rand.New(rand.NewSource(5)), 40, 8, []float64{1, 2})
	if err := sv.Append(edges); err != nil {
		t.Fatal(err)
	}
	ss := mustShardSnap(t, sv)
	st := sv.Stats()
	if st.Shards != 2 || st.Edges != 40 {
		t.Fatalf("Stats = %+v", st)
	}
	for i, e := range st.Epochs {
		if e != ss.Epochs[i] {
			t.Errorf("Stats.Epochs[%d] = %d, snapshot %d", i, e, ss.Epochs[i])
		}
	}
	if len(st.PerShard) != 2 || st.PerShard[0].Edges+st.PerShard[1].Edges != 40 {
		t.Errorf("per-shard breakdown inconsistent: %+v", st.PerShard)
	}
	// The snapshot folded each shard's backlog once, and said so.
	if st.Folds != 2 || st.PerShard[0].Folds != 1 || st.PerShard[1].Folds != 1 ||
		st.FoldNanos <= 0 || st.FoldNanos != st.PerShard[0].FoldNanos+st.PerShard[1].FoldNanos {
		t.Errorf("fold counters inconsistent: %d folds, %d ns, per shard %+v", st.Folds, st.FoldNanos, st.PerShard)
	}
}

// Durable sharded views recover bit-identically: append across
// checkpoint and WAL-tail territory, abort (simulated crash), reopen
// with the recorded shard count, and compare against a single view.
// Auto keys must continue from the recovered per-shard sequences.
func TestShardedDurableRecoveryMatchesSingleView(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ops := semiring.PlusTimes()
	dir := t.TempDir()
	dopt := DurableOptions[float64]{WAL: wal.Options{Policy: wal.SyncNever}}

	sv, err := Open(filepath.Join(dir, "store"), ops, 3, dopt)
	if err != nil {
		t.Fatal(err)
	}
	edges := randomEdges(r, 60, 10, []float64{1, 2, 3})
	single := NewView(ops)
	if err := single.Append(edges); err != nil {
		t.Fatal(err)
	}

	if err := sv.Append(append([]Edge[float64](nil), edges[:25]...)); err != nil {
		t.Fatal(err)
	}
	if err := sv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sv.Append(append([]Edge[float64](nil), edges[25:]...)); err != nil {
		t.Fatal(err)
	}
	if err := sv.Sync(); err != nil {
		t.Fatal(err)
	}
	sv.Abort() // crash: checkpoint covers a prefix, WAL tails carry the rest

	// Shards < 0 adopts the recorded count from the SHARDS meta file.
	rec, err := Open(filepath.Join(dir, "store"), ops, -1, dopt)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Shards() != 3 {
		t.Fatalf("recovered %d shards, want 3", rec.Shards())
	}
	if got := mustAdj(t, mustShardSnap(t, rec)); !got.Equal(mustSnap(t, single).Adjacency, eqF) {
		t.Fatal("recovered sharded adjacency != single view")
	}
	replayed := 0
	for _, ri := range rec.Recovery() {
		replayed += ri.Replayed
	}
	if replayed == 0 {
		t.Error("expected WAL-tail replay on at least one shard")
	}

	// Auto keys after recovery must extend, not collide with, the
	// recovered per-shard sequences.
	more := make([]Edge[float64], 30)
	for i := range more {
		more[i] = Weighted("", fmt.Sprintf("v%03d", r.Intn(10)), fmt.Sprintf("v%03d", r.Intn(10)), 2.0, 3.0)
	}
	if err := rec.Append(more); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	withAuto := append(append([]Edge[float64](nil), edges...), more...)
	for i := range withAuto {
		withAuto[i].Key = fmt.Sprintf("e%06d", i)
	}
	if got := mustAdj(t, mustShardSnap(t, rec)); !got.Equal(oneShot(t, withAuto, ops), eqF) {
		t.Fatal("post-recovery appends diverge from batch oracle")
	}
}

// Auto-keyed durable ingest replays identically: keys are assigned
// BEFORE the WAL record is written, so recovery sees explicit keys and
// the regenerated sequences continue where the log ended.
func TestShardedDurableAutoKeysRecoverExactly(t *testing.T) {
	ops := semiring.PlusTimes()
	dir := filepath.Join(t.TempDir(), "store")
	dopt := DurableOptions[float64]{WAL: wal.Options{Policy: wal.SyncNever}}
	sv, err := Open(dir, ops, 2, dopt)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	batch := make([]Edge[float64], 50)
	for i := range batch {
		batch[i] = Weighted("", fmt.Sprintf("v%02d", r.Intn(7)), fmt.Sprintf("v%02d", r.Intn(7)), 1.0, 2.0)
	}
	if err := sv.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := sv.Sync(); err != nil {
		t.Fatal(err)
	}
	want := mustAdj(t, mustShardSnap(t, sv))
	sv.Abort()

	rec, err := Open(dir, ops, -1, dopt)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := mustAdj(t, mustShardSnap(t, rec)); !got.Equal(want, eqF) {
		t.Fatal("auto-keyed recovery diverged")
	}
	eout, _, err := mustShardSnap(t, rec).Logs()
	if err != nil {
		t.Fatal(err)
	}
	if eout.RowKeys().Len() != 50 {
		t.Fatalf("recovered %d log rows, want 50", eout.RowKeys().Len())
	}
}

// Reopening with an explicit mismatching shard count is refused — it
// would silently re-partition the vertex space.
func TestOpenShardedCountMismatchRefused(t *testing.T) {
	ops := semiring.PlusTimes()
	dir := filepath.Join(t.TempDir(), "store")
	dopt := DurableOptions[float64]{WAL: wal.Options{Policy: wal.SyncNever}}
	sv, err := Open(dir, ops, 2, dopt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, ops, 4, dopt); err == nil {
		t.Fatal("shard-count mismatch must be refused")
	}
	if data, err := os.ReadFile(filepath.Join(dir, shardMetaFile)); err != nil || string(data) != "2\n" {
		t.Fatalf("SHARDS meta = %q, %v", data, err)
	}
}

// A sharded directory that lost its SHARDS file is refused under every
// count a caller can ask for — at one shard it would open empty beside
// the shard directories, at another count re-partitioned — by an error
// naming the directory and the missing file, and the refused open leaves
// the directory as it found it. SHARDS itself is on stable storage before
// the first shard directory exists.
func TestOpenWithoutShardsFileRefused(t *testing.T) {
	ops := semiring.PlusTimes()
	dir := filepath.Join(t.TempDir(), "store")
	cfs := &countFS{FS: iofault.OS}
	cfs.reset()
	st, err := Open(dir, ops, 2, DurableOptions[float64]{FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	// What Open did, in order: SHARDS written, fsynced, published and its
	// directory synced — and only then anything under shard-000.
	synced := slices.Index(cfs.other, "sync-dir "+inShard(dir))
	firstShard := slices.IndexFunc(cfs.other, func(op string) bool { return strings.Contains(op, "shard-000") })
	if cfs.syncs[inShard(filepath.Join(dir, shardMetaFile+".tmp"))] != 1 || synced < 0 || firstShard < synced ||
		!slices.Contains(cfs.other[:synced], "rename "+inShard(filepath.Join(dir, shardMetaFile))) {
		t.Errorf("creating a 2-shard store did %v (file syncs %v); want SHARDS fsynced, renamed into place and its directory synced before the first shard directory is touched", cfs.other, cfs.syncs)
	}
	if err := st.Append(randomEdges(rand.New(rand.NewSource(23)), 16, 6, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, shardMetaFile)); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	for _, shards := range []int{1, 0, 3, 2, -1} {
		re, err := Open(dir, ops, shards, DurableOptions[float64]{})
		if re != nil {
			t.Fatalf("%d shards asked: opened with %d shards and %d of 16 edges", shards, re.Shards(), re.Stats().Edges)
		}
		if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "no "+shardMetaFile+" file") {
			t.Errorf("%d shards asked: err = %v, want a refusal naming %s and the missing %s file", shards, err, dir, shardMetaFile)
		}
		if after := dirBytes(t, dir); !maps.Equal(after, before) {
			t.Fatalf("%d shards asked: the refused open changed the directory: %d files before, %d after", shards, len(before), len(after))
		}
	}
	// Put back, it is the store it was.
	if err := os.WriteFile(filepath.Join(dir, shardMetaFile), []byte("2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, ops, -1, DurableOptions[float64]{})
	if err != nil || re.Shards() != 2 || re.Stats().Edges != 16 {
		t.Fatalf("with SHARDS restored: %v", err)
	}
	re.Close()
}

// Routing is a fixed function of the source vertex: stable across view
// instances (unlike the interner's per-process maphash).
func TestShardRoutingDeterministic(t *testing.T) {
	a := memStore(t, semiring.PlusTimes(), 4)
	b := memStore(t, semiring.PlusTimes(), 4)
	for i := 0; i < 200; i++ {
		src := fmt.Sprintf("vertex-%d", i)
		if a.ShardFor(src) != b.ShardFor(src) {
			t.Fatalf("routing for %q differs across instances", src)
		}
	}
}

// A snapshot read for its adjacency never merges the incidence logs:
// the gather is per epoch vector, the log merge on first request.
func TestStoreSnapshotMergesLogsOnDemand(t *testing.T) {
	ops := semiring.PlusTimes()
	st := memStore(t, ops, 2)
	if err := st.Append(randomEdges(rand.New(rand.NewSource(6)), 30, 8, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	ss := mustShardSnap(t, st)
	if ss.Adjacency.NNZ() == 0 {
		t.Fatal("empty gathered adjacency")
	}
	if ss.g.eout != nil || ss.g.ein != nil {
		t.Fatal("Snapshot merged the incidence logs before anyone asked")
	}
	eout, ein, err := ss.Logs()
	if err != nil || eout.RowKeys().Len() != 30 || ein.RowKeys().Len() != 30 {
		t.Fatalf("Logs() = %v rows / %v rows, %v", eout.RowKeys().Len(), ein.RowKeys().Len(), err)
	}
	if again := mustShardSnap(t, st); again.g != ss.g {
		t.Error("unchanged vector must share the merged logs")
	}
}

// One Open owns the layout: a directory refuses an explicit shard count
// other than the one it holds — across the 1↔N boundary too, where the
// one-shard layout (root) and the N-shard layout (SHARDS + shard-NNN/)
// do not share a file — and a count left to GOMAXPROCS adopts it.
func TestOpenLayoutMismatchRefused(t *testing.T) {
	ops := semiring.PlusTimes()
	dopt := DurableOptions[float64]{WAL: wal.Options{Policy: wal.SyncNever}}
	for _, tc := range []struct{ first, then int }{{1, 4}, {4, 1}, {2, 3}, {0, 2}} {
		dir := filepath.Join(t.TempDir(), "store")
		st, err := Open(dir, ops, tc.first, dopt)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append([]Edge[float64]{{Src: "a", Dst: "b"}, {Src: "b", Dst: "c"}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, ops, tc.then, dopt); err == nil || !strings.Contains(err.Error(), "would re-partition the vertex space") {
			t.Errorf("%d→%d shards: reopen err = %v, want the re-partition refusal", tc.first, tc.then, err)
		}
		re, err := Open(dir, ops, -1, dopt)
		if err != nil {
			t.Fatalf("%d→GOMAXPROCS: %v", tc.first, err)
		}
		if want := max(tc.first, 1); re.Shards() != want || re.Stats().Edges != 2 {
			t.Errorf("adopting reopen: %d shards, %d edges; want %d shards, 2 edges", re.Shards(), re.Stats().Edges, want)
		}
		re.Close()
	}
}

// Directories written before shards owned their key generator hold
// explicit "sNNN-" keys in the log and no generator prefix in the
// checkpoint. They must reopen and take keyless appends: the generator
// continues the sequence where it can and reseeds past the log's last
// key where the next key would not sort after it. The SHARDS=1 layout
// (one shard under shard-000/) is one of them.
func TestStoreReopensLegacyAutoKeyDirectories(t *testing.T) {
	ops := semiring.PlusTimes()
	dopt := DurableOptions[float64]{WAL: wal.Options{Policy: wal.SyncNever}}
	for _, tc := range []struct {
		shards int
		gap    int // sequence numbers skipped, as after a rejected batch
	}{{2, 0}, {2, 5}, {1, 0}} {
		dir := filepath.Join(t.TempDir(), "store")
		if tc.shards == 1 {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, shardMetaFile), []byte("1\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir, ops, tc.shards, dopt)
		if err != nil {
			t.Fatal(err)
		}
		seq := make([]int, tc.shards)
		legacy := func(n int) []Edge[float64] {
			batch := make([]Edge[float64], n)
			for i := range batch {
				src := fmt.Sprintf("v%02d", i%9)
				sh := st.ShardFor(src)
				batch[i] = Edge[float64]{Key: fmt.Sprintf("s%03d-%012d", sh, seq[sh]), Src: src, Dst: "d"}
				seq[sh]++
			}
			return batch
		}
		if err := st.Append(legacy(20)); err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			seq[i] += tc.gap
		}
		if err := st.Append(legacy(10)); err != nil { // the WAL tail
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if tc.shards == 1 {
			if _, err := os.Stat(filepath.Join(dir, "shard-000")); err != nil {
				t.Fatalf("SHARDS=1 directory did not keep its shard-000 layout: %v", err)
			}
		}

		re, err := Open(dir, ops, tc.shards, dopt)
		if err != nil {
			t.Fatalf("%d shards, gap %d: reopen: %v", tc.shards, tc.gap, err)
		}
		keyless := make([]Edge[float64], 12)
		for i := range keyless {
			keyless[i] = Edge[float64]{Src: fmt.Sprintf("v%02d", i%9), Dst: "d"}
		}
		for round := 0; round < 2; round++ {
			if err := re.Append(keyless); err != nil {
				t.Fatalf("%d shards, gap %d: keyless append %d on a legacy directory: %v", tc.shards, tc.gap, round, err)
			}
		}
		eout, _, err := mustShardSnap(t, re).Logs()
		if err != nil {
			t.Fatal(err)
		}
		if eout.RowKeys().Len() != 54 {
			t.Errorf("%d shards, gap %d: %d log rows, want 54 distinct keys", tc.shards, tc.gap, eout.RowKeys().Len())
		}
		re.Close()
	}
}
