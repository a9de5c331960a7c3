package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/wal"
)

// snapEqual asserts two snapshots are bit-identical: same counters and
// Equal adjacency and incidence arrays (key sets included).
func snapEqual(t *testing.T, got, want Snapshot[float64], label string) {
	t.Helper()
	if got.Edges != want.Edges || got.Epoch != want.Epoch {
		t.Fatalf("%s: counters (edges %d epoch %d), want (%d %d)",
			label, got.Edges, got.Epoch, want.Edges, want.Epoch)
	}
	eq := func(a, b float64) bool { return a == b }
	if !got.Adjacency.Equal(want.Adjacency, eq) {
		t.Fatalf("%s: adjacency diverged", label)
	}
	gotOut, gotIn := mustLogs(t, got)
	wantOut, wantIn := mustLogs(t, want)
	if !gotOut.Equal(wantOut, eq) {
		t.Fatalf("%s: Eout diverged", label)
	}
	if !gotIn.Equal(wantIn, eq) {
		t.Fatalf("%s: Ein diverged", label)
	}
}

// mustLogs resolves a snapshot's key-ordered incidence arrays.
func mustLogs[V any](t *testing.T, s Snapshot[V]) (eout, ein *assoc.Array[V]) {
	t.Helper()
	eout, ein, err := s.Logs()
	if err != nil {
		t.Fatal(err)
	}
	return eout, ein
}

// flatSnap pins a store snapshot and flattens it into a plain Snapshot:
// the gathered adjacency and incidence logs, Epoch the vector's sum.
func flatSnap(t *testing.T, s *Store[float64]) Snapshot[float64] {
	t.Helper()
	ss, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eout, ein, err := ss.Logs()
	if err != nil {
		t.Fatal(err)
	}
	resolved := &logView[float64]{eout: eout, ein: ein}
	resolved.once.Do(func() {})
	return Snapshot[float64]{Adjacency: ss.Adjacency, Edges: ss.Edges, Epoch: ss.Epoch, log: resolved}
}

// memStore opens an in-memory store.
func memStore(t *testing.T, ops semiring.Ops[float64], shards int) *Store[float64] {
	t.Helper()
	s, err := Open("", ops, shards, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// durableBatches generates deterministic batches; batch b is derived
// only from (seed, b) so a control view can replay any prefix.
func durableBatches(seed int64, batches, perBatch int) [][]Edge[float64] {
	out := make([][]Edge[float64], batches)
	k := 0
	for b := range out {
		r := rand.New(rand.NewSource(seed + int64(b)))
		edges := make([]Edge[float64], perBatch)
		for i := range edges {
			edges[i] = Weighted(
				fmtKey(k),
				"v"+string(rune('a'+r.Intn(9))),
				"v"+string(rune('a'+r.Intn(9))),
				float64(r.Intn(7))+0.5,
				float64(r.Intn(7))+0.5,
			)
			k++
		}
		out[b] = edges
	}
	return out
}

func fmtKey(k int) string {
	const digits = "0123456789"
	buf := []byte("k0000000")
	for i := len(buf) - 1; k > 0 && i > 0; i-- {
		buf[i] = digits[k%10]
		k /= 10
	}
	return string(buf)
}

// controlView folds the first n batches into a plain in-memory view.
func controlView(t *testing.T, batches [][]Edge[float64], n int, ops semiring.Ops[float64]) Snapshot[float64] {
	t.Helper()
	return mustSnap(t, controlViewOf(t, batches[:n], ops))
}

func plusTimes(t testing.TB) semiring.Ops[float64] {
	t.Helper()
	e, ok := semiring.Lookup("+.*")
	if !ok {
		t.Fatal("+.* pair not registered")
	}
	return e.Ops
}

func TestDurableRoundTripCleanClose(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	batches := durableBatches(1, 12, 7)

	d, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatalf("Open fresh: %v", err)
	}
	for _, b := range batches {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Durability()[0]; st.Epoch != 12 || st.DurableEpoch != 12 || st.WALLag != 0 {
		t.Fatalf("batch policy durability = %+v, want epoch==durable==12", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if rec := d2.Recovery()[0]; rec.Replayed != 12 || rec.CheckpointSeq != 0 || rec.TornBytes != 0 {
		t.Fatalf("recovery = %+v, want 12 replayed from empty checkpoint", rec)
	}
	got := flatSnap(t, d2)
	snapEqual(t, got, controlView(t, batches, 12, ops), "clean close")
}

func TestDurableCheckpointPlusTailReplay(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	batches := durableBatches(2, 10, 5)

	d, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:6] {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[6:] {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	d.Abort() // unclean exit: no final checkpoint

	d2, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if rec := d2.Recovery()[0]; rec.CheckpointSeq != 6 || rec.Replayed != 4 {
		t.Fatalf("recovery = %+v, want checkpoint 6 + 4 replayed", rec)
	}
	got := flatSnap(t, d2)
	snapEqual(t, got, controlView(t, batches, 10, ops), "checkpoint+tail")

	// The recovered view must keep ingesting with the key discipline
	// intact (lastKey, autoSeq survived the round trip).
	extra := durableBatches(99, 1, 3)[0]
	for i := range extra {
		extra[i].Key = "z" + extra[i].Key
	}
	if err := d2.Append(extra); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestDurableAutoKeysReplayIdentically(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	d, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Auto-assigned keys: empty Key fields, regenerated on replay from
	// the checkpointed autoSeq/autoBase.
	mk := func(n int) []Edge[float64] {
		edges := make([]Edge[float64], n)
		for i := range edges {
			edges[i] = Edge[float64]{Src: "a", Dst: "b", Out: 2, In: 3, HasOut: true, HasIn: true}
		}
		return edges
	}
	if err := d.Append(mk(4)); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(mk(3)); err != nil {
		t.Fatal(err)
	}
	want := flatSnap(t, d)
	d.Abort()

	d2, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := flatSnap(t, d2)
	snapEqual(t, got, want, "auto keys")
}

// Abort simulates an unclean exit, so it syncs nothing: under SyncNever
// no batch becomes durable on its account. Within the process the page
// cache still holds the log, so a reopen recovers every batch.
func TestAbortSyncsNothing(t *testing.T) {
	ops := plusTimes(t)
	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		opt := DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}}
		d, err := Open(dir, ops, shards, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range durableBatches(5, 3, 6) {
			if err := d.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		want := flatSnap(t, d)
		d.Abort()
		for i, st := range d.Durability() {
			if st.DurableEpoch != 0 {
				t.Errorf("%d shards: shard %d is durable to epoch %d after Abort, want 0", shards, i, st.DurableEpoch)
			}
		}

		d2, err := Open(dir, ops, shards, opt)
		if err != nil {
			t.Fatalf("%d shards: reopen: %v", shards, err)
		}
		snapEqual(t, flatSnap(t, d2), want, fmt.Sprintf("%d shards: reopen after Abort", shards))
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableTornTailRecoversPrefix(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	batches := durableBatches(3, 8, 6)

	d, err := Open(dir, ops, 1, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	d.Abort()

	// Tear the final record: chop a few bytes off the last segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (err %v)", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer d2.Close()
	rec := d2.Recovery()[0]
	if rec.TornBytes == 0 || rec.Replayed != 7 {
		t.Fatalf("recovery = %+v, want 7 replayed with a torn tail", rec)
	}
	got := flatSnap(t, d2)
	snapEqual(t, got, controlView(t, batches, 7, ops), "torn tail")
}

func TestDurableMidLogCorruptionIsTypedError(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	batches := durableBatches(4, 6, 5)

	d, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	d.Abort()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (err %v)", err)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[20] ^= 0x10 // inside the first record's payload
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, ops, 1, DurableOptions{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("mid-log corruption: Open err = %v, want wal.ErrCorrupt", err)
	}
}

func TestDurableStaleCheckpointLongerWAL(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	batches := durableBatches(5, 10, 4)

	d, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:5] {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[5:] {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Abort()

	// Damage the newest checkpoint: recovery must fall back to the
	// stale one and replay the longer WAL tail over it.
	cks, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(cks) != 2 {
		t.Fatalf("want 2 checkpoints, got %d (err %v)", len(cks), err)
	}
	newest := cks[len(cks)-1]
	if !strings.Contains(newest, "000a") {
		t.Fatalf("unexpected newest checkpoint %s", newest)
	}
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(newest, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen with stale checkpoint: %v", err)
	}
	defer d2.Close()
	rec := d2.Recovery()[0]
	if rec.CheckpointSeq != 5 || rec.Replayed != 5 || rec.SkippedCheckpoints != 1 {
		t.Fatalf("recovery = %+v, want checkpoint 5 + 5 replayed + 1 skipped", rec)
	}
	got := flatSnap(t, d2)
	snapEqual(t, got, controlView(t, batches, 10, ops), "stale checkpoint")
}

func TestDurableCheckpointPayloadCorruptionFailsTyped(t *testing.T) {
	// A sole checkpoint whose payload is damaged under an intact CRC is
	// impossible; damaged WITH the CRC catching it and no fallback must
	// be the typed error. Damage that somehow passes the CRC layer is
	// simulated by corrupting payload THROUGH a rewritten checkpoint —
	// covered by TestDecodeSectionsRejectsInconsistency; here the
	// end-to-end path.
	ops := plusTimes(t)
	dir := t.TempDir()
	d, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(durableBatches(6, 1, 5)[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Abort()
	cks, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if len(cks) != 1 {
		t.Fatalf("want 1 checkpoint, got %d", len(cks))
	}
	buf, err := os.ReadFile(cks[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-2] ^= 0x04
	if err := os.WriteFile(cks[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, ops, 1, DurableOptions{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("sole damaged checkpoint: Open err = %v, want wal.ErrCorrupt", err)
	}
}

func TestDurableBackgroundCheckpoint(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	d, err := Open(dir, ops, 1, DurableOptions{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range durableBatches(7, 5, 4) {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cks, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt")); len(cks) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpoint never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rec := d2.Recovery()[0]; rec.CheckpointSeq < 3 {
		t.Fatalf("recovery = %+v, want a checkpoint at seq >= 3", rec)
	}
	got := flatSnap(t, d2)
	snapEqual(t, got, controlView(t, durableBatches(7, 5, 4), 5, ops), "background checkpoint")
}

func TestDurableRejectedBatchTouchesNothing(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	d, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := durableBatches(8, 2, 5)
	if err := d.Append(good[0]); err != nil {
		t.Fatal(err)
	}
	// A batch violating the key discipline: its first key sorts before
	// the log's last key. The view rejects it; the WAL must not see it.
	bad := []Edge[float64]{Weighted("a-before-everything", "x", "y", 1.0, 1.0)}
	if err := d.Append(bad); err == nil {
		t.Fatal("out-of-order batch accepted")
	}
	if err := d.Append(good[1]); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if rec := d2.Recovery()[0]; rec.Replayed != 2 {
		t.Fatalf("recovery replayed %d records, want 2 (rejected batch logged?)", rec.Replayed)
	}
	got := flatSnap(t, d2)
	snapEqual(t, got, controlView(t, good, 2, ops), "rejection")
}

func TestDurableWrongAlgebraRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, plusTimes(t), 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(durableBatches(9, 1, 4)[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	e, ok := semiring.Lookup("min.+")
	if !ok {
		t.Fatal("min.+ pair not registered")
	}
	if _, err := Open(dir, e.Ops, 1, DurableOptions{}); err == nil {
		t.Fatal("checkpoint written under +.* opened under min.+")
	}
}

// A durable store holds float64: Open refuses any other value type before
// it touches the directory, so a refused open leaves none behind — no
// SHARDS file to pin a shard count on a later open — while the same
// algebra in memory opens.
func TestADurableStoreOfAnotherValueTypeIsRefusedUntouched(t *testing.T) {
	ops := semiring.BoolOrAnd()
	dir := filepath.Join(t.TempDir(), "store")
	for _, shards := range []int{2, 1, -1} {
		st, err := Open(dir, ops, shards, DurableOptions{})
		if st != nil || err == nil || !strings.Contains(err.Error(), "float64") {
			t.Fatalf("%d shards: store %v, err %v; want a refusal naming float64", shards, st, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%d shards: the refused open left %s behind (%v)", shards, dir, err)
		}
	}
	st, err := Open("", ops, 2, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]Edge[bool]{{Src: "a", Dst: "b"}}); err != nil {
		t.Fatal(err)
	}
}
