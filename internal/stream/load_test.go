package stream

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"adjarray/internal/dataset"
	"adjarray/internal/iofault"
	"adjarray/internal/keys"
	"adjarray/internal/wal"
)

// checkpointedStore writes a one-shard durable store of the unkeyed,
// unweighted edges of an R-MAT graph, appended in batches of 256 over a
// growing vertex universe as adjserve's ingest appends them, checkpoints
// it and closes it. It returns the directory.
func checkpointedStore(t testing.TB, scale, edgeFactor int) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, plusTimes(t), 1, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	es := dataset.RMAT(rand.New(rand.NewSource(1)), scale, edgeFactor).Edges()
	batch := make([]Edge[float64], 0, 256)
	for lo := 0; lo < len(es); lo += cap(batch) {
		batch = batch[:0]
		for _, e := range es[lo:min(lo+cap(batch), len(es))] {
			batch = append(batch, Edge[float64]{Src: e.Src, Dst: e.Dst})
		}
		if err := st.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// heldBytes is what a view holds, by capacity: the log's columns, the
// interners' slabs, offsets and tables, the position arrays, the
// universe's key headers and main's CSR — what a checkpoint load builds.
func heldBytes(v *View[float64]) int {
	n := 4*(cap(v.srcID)+cap(v.dstID)+cap(v.srcPos)+cap(v.dstPos)) + 8*(cap(v.out)+cap(v.in))
	n += 16 * cap(v.keys.spelled)
	for _, k := range v.keys.spelled {
		n += len(k)
	}
	for _, in := range []*keys.Interner{v.srcIn, v.dstIn} {
		st := in.Stats()
		n += st.SlabBytes + 4*(st.Keys+1) + 4*st.TableSlot
	}
	n += 16 * (v.uRows.Len() + v.uCols.Len())
	rowPtr, colIdx, val := v.main.Matrix().Parts()
	return n + 4*(len(rowPtr)+len(colIdx)) + 8*len(val)
}

// Loading a checkpoint allocates what the view it becomes holds and a
// read buffer: the file is read in pieces straight into the view's
// arrays, never whole beside them. (What the WAL replay after the load
// reads is not counted: that is not the checkpoint's.)
func TestCheckpointLoadBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	dir := checkpointedStore(t, 15, 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ck, _, err := wal.LoadCheckpointFS(iofault.OS, dir)
	if err != nil || ck == nil {
		t.Fatalf("load: checkpoint %v, %v", ck, err)
	}
	v, err := decodeCheckpoint(ck, plusTimes(t))
	runtime.ReadMemStats(&after)
	if cerr := ck.Close(); err != nil || cerr != nil {
		t.Fatal(err, cerr)
	}
	held, got := heldBytes(v), after.TotalAlloc-before.TotalAlloc
	fi, err := os.Stat(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("a %d-byte checkpoint of %d edges loaded into a view holding %d bytes; the load allocated %d", fi.Size(), len(v.srcID), held, got)
	if limit := uint64(held + 1<<20); got > limit {
		t.Errorf("loading allocated %d bytes, over the %d the view holds plus 1 MiB", got, held)
	}
}

// A failed read at any call of a checkpoint load ends as a failed read of
// the whole file did: one while the newest checkpoint is validated skips
// it for the older one and a longer replay, which recovers the same
// state; one while it is decoded fails the open with the read's own
// error — not as damage. Both happen, so the load reads the file in
// several pieces.
func TestCheckpointLoadReadFaultAtEveryCall(t *testing.T) {
	ops := plusTimes(t)
	batches := durableBatches(50, 9, 8)
	master := t.TempDir()
	st, err := Open(master, ops, 1, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == 6 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Abort()
	want := controlView(t, batches, len(batches), ops)
	fellBack, failed := 0, 0
	for after := 0; ; after++ {
		dir := filepath.Join(t.TempDir(), "store")
		if err := os.CopyFS(dir, os.DirFS(master)); err != nil {
			t.Fatal(err)
		}
		inj := iofault.New()
		inj.Arm(iofault.Rule{Op: iofault.OpRead, Path: "ckpt-0000000000000007.ckpt", Kind: iofault.EIO, After: after, Count: 1})
		re, err := Open(dir, ops, 1, DurableOptions{FS: iofault.Wrap(iofault.OS, inj)})
		if inj.Injected() == 0 { // past the load's last read
			if err != nil {
				t.Fatalf("unfaulted open: %v", err)
			}
			if rec := re.Recovery()[0]; rec.SkippedCheckpoints != 0 || rec.CheckpointSeq != 7 {
				t.Fatalf("unfaulted open: recovery %+v", rec)
			}
			snapEqual(t, flatSnap(t, re), want, "unfaulted open")
			re.Abort()
			break
		}
		if err != nil {
			if !errors.Is(err, iofault.ErrInjected) || errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("read %d faulted: open err = %v, want the injected fault, not corruption", after, err)
			}
			failed++
			continue
		}
		if rec := re.Recovery()[0]; rec.SkippedCheckpoints != 1 || rec.CheckpointSeq != 3 || rec.Replayed != 6 {
			t.Fatalf("read %d faulted: recovery %+v, want the older checkpoint and six replayed", after, rec)
		}
		snapEqual(t, flatSnap(t, re), want, "fallback")
		re.Abort()
		fellBack++
	}
	t.Logf("%d faulted reads fell back, %d failed the open", fellBack, failed)
	if fellBack < 2 || failed < 2 {
		t.Errorf("%d faulted reads fell back and %d failed the open: a load that validates and decodes in pieces does both, more than once", fellBack, failed)
	}
}

// BenchmarkCheckpointLoad reopens a one-shard durable store of ~400k
// unkeyed edges (R-MAT scale 16, edge factor 6), appended in batches of
// 256 over a growing universe, from its checkpoint: one op is the Open,
// WAL replay included. B/op is set against decoded-MB, what the reopened
// view holds.
func BenchmarkCheckpointLoad(b *testing.B) {
	dir := checkpointedStore(b, 16, 6)
	ops := plusTimes(b)
	held := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir, ops, 1, DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		held = heldBytes(st.parts[0].v)
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(held)/(1<<20), "decoded-MB")
}
