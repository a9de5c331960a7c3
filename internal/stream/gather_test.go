package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
)

// referenceGather is the gather mergeAdjacency ran before it became a
// concatenation, kept as the reference: union the shards' key sets
// pairwise, embed every shard's adjacency into the union space (positions
// through the union sets' reverse indexes) and ⊕-merge them in ascending
// shard order. Shards own disjoint rows, so no ⊕ combines two values.
func referenceGather[V any](t *testing.T, shards []Snapshot[V], ops semiring.Ops[V]) *assoc.Array[V] {
	t.Helper()
	if len(shards) == 1 {
		return shards[0].Adjacency
	}
	var uRows, uCols *keys.Set
	for _, sn := range shards {
		if uRows == nil {
			uRows, uCols = sn.Adjacency.RowKeys(), sn.Adjacency.ColKeys()
			continue
		}
		uRows = uRows.Union(sn.Adjacency.RowKeys())
		uCols = uCols.Union(sn.Adjacency.ColKeys())
	}
	var acc *assoc.Array[V]
	for _, sn := range shards {
		pe, err := sn.Adjacency.EmbedInto(uRows, uCols)
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = pe
			continue
		}
		if acc, err = assoc.AddInto(acc, pe, ops, false); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// The concatenating gather against the embed-then-⊕ one, key sets
// included: every registered operator pair — the non-examples and the
// signed ring, whose cells fold to zero and are pruned, with them — on 1,
// 2, 3 and 5 shards, over a stream whose vertex universe keeps growing,
// gathered at interior epoch vectors as well as the last.
func TestGatherMatchesEmbedThenMerge(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, entry := range semiring.Registry() {
		ops := entry.Ops
		for _, shards := range []int{1, 2, 3, 5} {
			verts := scatteredVertices(r, 40)
			budget := 1 + r.Intn(40) // a shard whose unfolded suffix reaches it folds
			sv := memStore(t, ops, shards)
			for lo, n := 0, 160; lo < n; {
				hi := min(lo+1+r.Intn(19), n)
				batch := make([]Edge[float64], hi-lo)
				for i := range batch {
					reach := min(3+(lo+i)/4, len(verts)) // the reachable vertex set grows as the stream goes on
					batch[i] = Weighted(fmt.Sprintf("e%06d", lo+i), verts[r.Intn(reach)], verts[r.Intn(reach)],
						entry.Sample[r.Intn(len(entry.Sample))], entry.Sample[r.Intn(len(entry.Sample))])
				}
				if err := sv.Append(batch); err != nil {
					t.Fatalf("%s/%d shards: %v", ops.Name, shards, err)
				}
				for _, p := range sv.parts {
					if p.v.Stats().PendingNNZ >= budget {
						mustSnap(t, p.v)
					}
				}
				lo = hi
				if lo < n && r.Intn(3) != 0 {
					continue
				}
				snap := mustShardSnap(t, sv)
				if err := snap.Adjacency.Validate(); err != nil {
					t.Fatalf("%s/%d shards at %v: %v", ops.Name, shards, snap.Epochs, err)
				}
				if d := assoc.Diff(snap.Adjacency, referenceGather(t, snap.Shards, ops), ops.Equal, nil); d != "" {
					t.Fatalf("%s/%d shards at %v: %s", ops.Name, shards, snap.Epochs, d)
				}
			}
		}
	}
}

// viewOf is a view holding the given edges, keyed in order.
func viewOf(t *testing.T, ops semiring.Ops[float64], name string, edges ...Edge[float64]) *View[float64] {
	t.Helper()
	v := NewView(ops)
	for i := range edges {
		edges[i].Key = fmt.Sprintf("%s-%04d", name, i)
	}
	if err := v.Append(edges); err != nil {
		t.Fatal(err)
	}
	return v
}

// Shards placed by hand, where the routing hash would never put them: a
// shard whose keys all sort before its sibling's, one in between, one
// after, one that is empty, and one whose only cells fold to zero (it
// brings its keys and no entry).
func TestGatherOfHandPlacedShards(t *testing.T) {
	ring, ok := semiring.Lookup("real+.real*")
	if !ok {
		t.Fatal("the signed ring is not registered")
	}
	ops := ring.Ops
	w := func(src, dst string, out float64) Edge[float64] { return Weighted("", src, dst, out, 1) }
	views := map[string]*View[float64]{
		"middle":  viewOf(t, ops, "m", w("m1", "m2", 2), w("m3", "a0", 3), w("m1", "z9", 5)),
		"before":  viewOf(t, ops, "b", w("a1", "a0", 7), w("a2", "m2", 1)),
		"between": viewOf(t, ops, "i", w("m2", "m1", 4), w("m2", "m3", 6)),
		"after":   viewOf(t, ops, "a", w("z1", "z9", 8), w("z2", "a0", 9)),
		"empty":   NewView(ops),
		"zeroes":  viewOf(t, ops, "z", w("k1", "k2", 1), w("k1", "k2", -1)),
	}
	for _, names := range [][]string{
		{"middle", "before"}, {"before", "middle"}, {"middle", "between"}, {"middle", "after"},
		{"middle", "empty"}, {"empty", "middle"}, {"empty", "empty"}, {"middle", "zeroes"},
		{"after", "zeroes", "before", "empty", "middle", "between"},
	} {
		var shards []Snapshot[float64]
		for _, name := range names {
			shards = append(shards, mustSnap(t, views[name]))
		}
		got, err := mergeAdjacency(shards)
		if err != nil {
			t.Fatalf("%v: %v", names, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%v: %v", names, err)
		}
		if d := assoc.Diff(got, referenceGather(t, shards, ops), ops.Equal, nil); d != "" {
			t.Errorf("%v: %s", names, d)
		}
	}
	if adj := mustSnap(t, views["zeroes"]).Adjacency; adj.NNZ() != 0 || adj.RowKeys().Len() != 1 {
		t.Fatalf("the zero-folding shard holds %d entries over %d rows; want its key and no entry", adj.NNZ(), adj.RowKeys().Len())
	}
}

// Two shards that hold the same source row — here two views fed one
// source vertex behind a single StoreSnapshot — are not ⊕-combined: the
// gather refuses, naming the row by key and the two shards.
func TestGatherRefusesARowTwoShardsStore(t *testing.T) {
	ops := semiring.PlusTimes()
	e := func(src, dst string) Edge[float64] { return Edge[float64]{Src: src, Dst: dst} }
	shards := []Snapshot[float64]{
		mustSnap(t, viewOf(t, ops, "a", e("alice", "bob"), e("carol", "bob"))),
		mustSnap(t, viewOf(t, ops, "b", e("dave", "alice"))),
		mustSnap(t, viewOf(t, ops, "c", e("erin", "bob"), e("carol", "dave"))),
	}
	if _, err := mergeAdjacency(shards[:2]); err != nil {
		t.Fatalf("disjoint shards: %v", err)
	}
	_, err := mergeAdjacency(shards)
	var rc *sparse.RowConflictError
	if !errors.As(err, &rc) {
		t.Fatalf("shards 0 and 2 both store carol's row: got %v", err)
	}
	for _, want := range []string{`"carol"`, "part 0", "part 2", "shard"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("the refusal does not say %s: %v", want, err)
		}
	}
}

// The same through a directory: a 2-shard store reopened after shard-001
// was replaced by a copy of shard-000. Gathering is refused with the
// row's key — Snapshot errs — while the pin and the point read, which
// gather nothing, keep answering.
func TestStoreWithACopiedShardRefusesToGather(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	st, err := Open(dir, ops, 2, DurableOptions[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	var src string // a source shard 0 owns
	for i := 0; src == ""; i++ {
		if s := fmt.Sprintf("s%02d", i); st.ShardFor(s) == 0 {
			src = s
		}
	}
	if err := st.Append([]Edge[float64]{{Src: src, Dst: "x"}, {Src: src, Dst: "y"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(); err != nil {
		t.Fatalf("the healthy store: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	from, to := filepath.Join(dir, "shard-000"), filepath.Join(dir, "shard-001")
	if err := os.RemoveAll(to); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(to, os.DirFS(from)); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir, ops, 2, DurableOptions[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.Snapshot()
	var rc *sparse.RowConflictError
	if !errors.As(err, &rc) || !strings.Contains(err.Error(), fmt.Sprintf("%q", src)) {
		t.Fatalf("gathering a store whose shards both hold %q's row: got %v", src, err)
	}
	pin, err := st.Pin()
	if err != nil || len(pin.Shards) != 2 || pin.Adjacency != nil {
		t.Errorf("the pin gathers nothing and has nothing to refuse: %v (adjacency %v)", err, pin.Adjacency)
	}
	sn, _, err := st.OwnerSnapshot(src)
	if err != nil {
		t.Fatalf("point read: %v", err)
	}
	if v, ok := sn.At(src, "y"); !ok || v != 1 {
		t.Errorf("the owner's row reads (%v, %v)", v, ok)
	}
}

// A pin does not gather, and says so: Adjacency stays nil until a
// Snapshot at the same vector has run the gather, which every later pin
// and snapshot at that vector then shares.
func TestPinDoesNotGather(t *testing.T) {
	sv := memStore(t, semiring.PlusTimes(), 3)
	if err := sv.Append(randomEdges(rand.New(rand.NewSource(5)), 40, 9, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	pin, err := sv.Pin()
	if err != nil || pin.Adjacency != nil || len(pin.Shards) != 3 || pin.Edges != 40 {
		t.Fatalf("first pin: %v, adjacency %v, %d shards, %d edges", err, pin.Adjacency, len(pin.Shards), pin.Edges)
	}
	snap := mustShardSnap(t, sv)
	if !slices.Equal(snap.Epochs, pin.Epochs) || snap.g != pin.g {
		t.Fatalf("the snapshot at the pinned vector %v is another one (%v)", pin.Epochs, snap.Epochs)
	}
	if again, err := sv.Pin(); err != nil || again.Adjacency != snap.Adjacency {
		t.Errorf("a pin after the gather does not carry it: %v", err)
	}
	one := memStore(t, semiring.PlusTimes(), 1)
	if err := one.Append([]Edge[float64]{{Src: "a", Dst: "b"}}); err != nil {
		t.Fatal(err)
	}
	if snap := mustShardSnap(t, one); snap.Adjacency != snap.Shards[0].Adjacency {
		t.Error("one shard's gather is not that shard's array")
	}
}

// A point read's epoch vector carries each sibling's last COMMITTED
// epoch, read without the sibling's lock: with a sibling's Append parked
// inside the view lock (here on a failpoint; in production, in a fold),
// OwnerSnapshot for a source on another shard still returns. Run under
// -race.
func TestOwnerSnapshotDoesNotWaitForASibling(t *testing.T) {
	sv := memStore(t, semiring.PlusTimes(), 2)
	var srcs [2]string // one source per shard
	for i := 0; srcs[0] == "" || srcs[1] == ""; i++ {
		s := fmt.Sprintf("s%02d", i)
		srcs[sv.ShardFor(s)] = s
	}
	if err := sv.Append([]Edge[float64]{{Src: srcs[0], Dst: "x"}, {Src: srcs[1], Dst: "x"}}); err != nil {
		t.Fatal(err)
	}
	if err := sv.Append([]Edge[float64]{{Src: srcs[1], Dst: "y"}}); err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	sv.parts[1].v.failpoint = func(site string) error {
		if site == "append:interned" {
			close(parked)
			<-release
		}
		return nil
	}
	appended := make(chan error, 1)
	go func() { appended <- sv.Append([]Edge[float64]{{Src: srcs[1], Dst: "z"}}) }()
	<-parked // shard 1's view lock is held, its third batch not yet counted

	type read struct {
		epochs []int
		err    error
	}
	done := make(chan read, 1)
	go func() {
		_, epochs, err := sv.OwnerSnapshot(srcs[0])
		done <- read{epochs, err}
	}()
	select {
	case got := <-done:
		if got.err != nil || !slices.Equal(got.epochs, []int{1, 2}) {
			t.Errorf("epochs %v (%v), want [1 2]: the owner's pin and the sibling's last committed batch", got.epochs, got.err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a point read for shard 0 waited on shard 1's view lock")
	}
	close(release)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if _, epochs, err := sv.OwnerSnapshot(srcs[0]); err != nil || !slices.Equal(epochs, []int{1, 3}) {
		t.Errorf("after the sibling's batch committed: epochs %v (%v), want [1 3]", epochs, err)
	}
}

// spansUniverse checks the invariant every fold must leave behind.
func spansUniverse(t *testing.T, v *View[float64], when string) {
	t.Helper()
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.main.RowKeys() != v.uRows || v.main.ColKeys() != v.uCols {
		t.Fatalf("%s: main spans %v × %v, the universe is %v × %v", when, v.main.RowKeys(), v.main.ColKeys(), v.uRows, v.uCols)
	}
	if err := v.main.Validate(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// The fold moves main into a grown universe by merging through the
// sync's position maps. The corners: a backlog that folds to nothing
// while it grows the universe (main is embedded alone), a stored cell
// the fold continues to zero (the merge deletes it), a point read right
// after growth (nothing folds until the step's snapshot), new keys
// before, between and after the old ones — each against the one-shot
// construction, and main spanning the universe after every step.
func TestFoldMovesMainThroughTheMaps(t *testing.T) {
	ring, ok := semiring.Lookup("real+.real*")
	if !ok {
		t.Fatal("the signed ring is not registered")
	}
	ops := ring.Ops
	w := func(src, dst string, out float64) Edge[float64] { return Weighted("", src, dst, out, 1) }
	v := NewView(ops) // folds happen where the test asks: at its reads
	var all []Edge[float64]
	step := func(when string, act func() error, edges ...Edge[float64]) {
		t.Helper()
		for i := range edges {
			edges[i].Key = fmt.Sprintf("e%04d", len(all)+i)
		}
		all = append(all, edges...)
		if err := v.Append(edges); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if err := act(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		spansUniverse(t, v, when)
		if d := assoc.Diff(mustSnap(t, v).Adjacency, oneShot(t, all, ops), ops.Equal, nil); d != "" {
			t.Fatalf("%s: %s", when, d)
		}
	}
	fold := func() error { _, err := v.Snapshot(); return err }
	step("first fold", fold, w("m1", "m2", 2), w("m3", "m1", 3))
	step("keys before and after", fold, w("a1", "z9", 5), w("m1", "a0", 1))
	step("keys in between, cells that meet", fold, w("m2", "m15", 4), w("m1", "m2", 6))
	step("a backlog that folds to nothing and grows both sides", fold, w("k1", "k2", 1), w("k1", "k2", -1))
	step("a stored cell cancelled, no growth", fold, w("m3", "m1", -3))
	step("a point read right after growth", func() error { _, err := v.Point(); return err }, w("c1", "c2", 7), w("a0", "m2", 8))
	step("a fold after the point read", fold, w("zz", "a1", 9))
	// One fold per step: the point read folded nothing, so that step's
	// comparison snapshot did, and the others found nothing left to fold.
	if st := v.Stats(); st.Folds != 7 || st.PendingNNZ != 0 {
		t.Errorf("%d folds ran and %d edges are pending after seven steps", st.Folds, st.PendingNNZ)
	}
}

// What a read-after-write costs the owning view: after an append that
// introduces a vertex on each side, the snapshot that folds it allocates
// ONE array the size of main — the merge's output, read from the old main
// through the position maps — not an embedded copy of main and then the
// merge's; and with the previous main still held by a snapshot there is
// no next merge to save head-room for, so that array is exact-size.
func TestSnapshotAfterGrowthAllocatesOneMain(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	v := NewView(semiring.PlusTimes())
	var preload []Edge[float64]
	for _, e := range dataset.RMAT(rand.New(rand.NewSource(3)), 14, 8).Edges() {
		preload = append(preload, Edge[float64]{Src: e.Src, Dst: e.Dst})
	}
	if err := v.Append(preload); err != nil {
		t.Fatal(err)
	}
	held := mustSnap(t, v) // a reader holds main from here on
	batch := make([]Edge[float64], 32)
	r := rand.New(rand.NewSource(4))
	for i := range batch {
		batch[i] = Edge[float64]{Src: preload[r.Intn(len(preload))].Src, Dst: preload[r.Intn(len(preload))].Dst}
	}
	batch[0].Src, batch[31].Dst = "fresh-source", "fresh-destination"
	if err := v.Append(batch); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := mustSnap(t, v)
	runtime.ReadMemStats(&after)

	m := snap.Adjacency.Matrix()
	if snap.Adjacency.RowKeys().Len() != held.Adjacency.RowKeys().Len()+1 || snap.Adjacency.ColKeys().Len() != held.Adjacency.ColKeys().Len()+1 {
		t.Fatalf("the batch was meant to add one key to each side of %d × %d, got %d × %d", held.Adjacency.RowKeys().Len(),
			held.Adjacency.ColKeys().Len(), snap.Adjacency.RowKeys().Len(), snap.Adjacency.ColKeys().Len())
	}
	pair := uint64(m.NNZ()) * 16 // one column index and one value per entry
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d entries (a %d KiB pair); the snapshot allocated %d KiB", m.NNZ(), pair>>10, got>>10)
	if got > pair+pair*2/3 {
		t.Errorf("the snapshot allocated %d bytes over a main of %d entries: more than one index/value pair (%d bytes) and the universe's arrays", got, m.NNZ(), pair)
	}
	cols, vals := m.Row(m.Rows() - 1) // the last row's slices end where the backing arrays' lengths do
	if cap(cols) != len(cols) || cap(vals) != len(vals) {
		t.Errorf("main was allocated with head-room (%d and %d spare entries) though a snapshot holds its predecessor", cap(cols)-len(cols), cap(vals)-len(vals))
	}
}
