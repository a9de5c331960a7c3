package stream

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"adjarray/internal/iofault"
	"adjarray/internal/wal"
)

// TestDurableFsyncFailureReadOnly is the stream-level fsyncgate
// regression: one injected fsync fault must flip the store to
// read-only, freeze the durable boundary at the last successful fsync,
// refuse all further appends with ErrReadOnly, and lose no
// acked-durable batch across reopen.
func TestDurableFsyncFailureReadOnly(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	batches := durableBatches(31, 6, 5)
	inj := iofault.New()

	d, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{FS: iofault.Wrap(iofault.OS, inj)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := d.Append(batches[0]); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if h, _ := d.StorageHealth(); h.State != StorageOK || h.Faults != 0 {
		t.Fatalf("healthy store reports %+v", h)
	}

	inj.Arm(iofault.Rule{Op: iofault.OpSync, Path: "wal-", Kind: iofault.EIO, Count: 1})
	err = d.Append(batches[1])
	if err == nil {
		t.Fatal("append over failed fsync must error")
	}
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, wal.ErrWedged) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("want ErrReadOnly wrapping the wedged EIO, got %v", err)
	}
	if st := d.Durability()[0]; st.DurableEpoch != 1 {
		t.Fatalf("failed fsync advanced DurableEpoch to %d; must stay 1", st.DurableEpoch)
	}
	if h, _ := d.StorageHealth(); h.State != StorageReadOnly || h.Faults == 0 || h.Err == "" {
		t.Fatalf("after fsync failure health = %+v, want read-only with faults", h)
	}

	// The fault budget is spent — the disk is healthy again — but the
	// store stays read-only until reopen, and reads keep working.
	if err := d.Append(batches[2]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append after wedge: want ErrReadOnly, got %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("sync after wedge: want ErrReadOnly, got %v", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("checkpoint after wedge: want ErrReadOnly, got %v", err)
	}
	if st := d.Durability()[0]; st.DurableEpoch != 1 || st.Storage.State != StorageReadOnly {
		t.Fatalf("post-wedge durability = %+v", st)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatalf("reads must keep serving in read-only state: %v", err)
	}
	// Batch 2 applied to the view before its WAL record's fsync failed,
	// so the in-memory epoch is 2; the durable boundary is 1.
	if snap.Epoch != 2 {
		t.Fatalf("snapshot epoch %d, want 2 (view-first append)", snap.Epoch)
	}

	inj.Clear()
	d.Abort() // the process dies; the fault condition has cleared

	d2, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{})
	if err != nil {
		t.Fatalf("reopen after fault cleared: %v", err)
	}
	defer d2.Close()
	got := flatSnap(t, d2)
	// The acked batch must survive; batch 2's record hit the file
	// before its failed fsync, so recovery may deliver it too —
	// recovering MORE than acked is fine, losing acked data is not.
	if got.Epoch < 1 {
		t.Fatalf("recovered epoch %d, lost the acked batch", got.Epoch)
	}
	snapEqual(t, got, controlView(t, batches, got.Epoch, ops), "recovered prefix")
}

// TestDurableCheckpointDegradedNotWedged: checkpoint failures must
// leave the store degraded — appends still durable through the WAL —
// and clear on the next successful checkpoint. A transient fault
// within the retry budget never even degrades.
func TestDurableCheckpointDegradedNotWedged(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	batches := durableBatches(32, 8, 4)
	inj := iofault.New()

	d, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{
		FS: iofault.Wrap(iofault.OS, inj),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer d.Close()
	for _, b := range batches[:3] {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}

	// One transient fault, retry budget 2: the checkpoint succeeds on
	// the second attempt and the store never leaves ok.
	inj.Arm(iofault.Rule{Op: iofault.OpWrite, Path: ".tmp", Kind: iofault.ENOSPC, Count: 1})
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with one transient fault must retry and pass: %v", err)
	}
	if h, _ := d.StorageHealth(); h.State != StorageOK || h.Faults != 1 {
		t.Fatalf("after retried checkpoint health = %+v, want ok with 1 fault", h)
	}

	// A persistent fault exhausts the budget: degraded, not read-only.
	inj.Arm(iofault.Rule{Op: iofault.OpWrite, Path: ".tmp", Kind: iofault.ENOSPC})
	if err := d.Append(batches[3]); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("exhausted checkpoint retries: want ENOSPC, got %v", err)
	}
	if h, _ := d.StorageHealth(); h.State != StorageDegraded || h.Err == "" {
		t.Fatalf("after failed checkpoint health = %+v, want degraded", h)
	}
	if n := countTmp(t, dir); n != 0 {
		t.Fatalf("failed checkpoint attempts left %d temp files", n)
	}

	// Appends keep working and stay durable while degraded.
	if err := d.Append(batches[4]); err != nil {
		t.Fatalf("degraded store must keep accepting appends: %v", err)
	}
	if st := d.Durability()[0]; st.DurableEpoch != 5 {
		t.Fatalf("degraded durability = %+v, want DurableEpoch 5 via WAL", st)
	}

	// The condition clears; the next checkpoint succeeds and the state
	// machine returns to ok.
	inj.Clear()
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after faults cleared: %v", err)
	}
	if h, _ := d.StorageHealth(); h.State != StorageOK {
		t.Fatalf("health after recovery = %+v, want ok", h)
	}
	if st := d.Durability()[0]; st.CheckpointSeq != 5 {
		t.Fatalf("recovered checkpoint covers %d, want 5", st.CheckpointSeq)
	}
}

// TestDurableOpenReapsTempCheckpoints: orphaned ckpt-*.tmp files (a
// writer that died mid-publish, or whose cleanup Remove faulted) are
// reaped on open and counted in RecoveryInfo.
func TestDurableOpenReapsTempCheckpoints(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	batches := durableBatches(33, 3, 4)

	d, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ckpt-12345.tmp", "ckpt-orphan.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{})
	if err != nil {
		t.Fatalf("reopen over orphaned temps: %v", err)
	}
	defer d2.Close()
	if rec := d2.Recovery()[0]; rec.ReapedTempFiles != 2 {
		t.Fatalf("recovery reaped %d temp files, want 2 (%+v)", rec.ReapedTempFiles, rec)
	}
	if n := countTmp(t, dir); n != 0 {
		t.Fatalf("%d temp files survived open", n)
	}
	got := flatSnap(t, d2)
	snapEqual(t, got, controlView(t, batches, 3, ops), "recovery after reap")
}

// TestShardedDegradedSiblingIsolation faults one shard's directory
// while its siblings stay healthy: ingest routed to the sick shard
// sheds with ErrReadOnly, healthy shards keep accepting, reads gather
// every shard's last good epoch, and recovery after the fault clears
// is bit-identical to the acked history.
func TestShardedDegradedSiblingIsolation(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	const shards = 3
	const sick = 1
	inj := iofault.New()

	sv, err := Open(dir, ops, shards, Options{},
		DurableOptions[float64]{FS: iofault.Wrap(iofault.OS, inj)})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// Craft per-shard sub-batches with explicit ascending keys so a
	// control view can replay the exact acked history.
	srcFor := func(shard, n int) []string {
		var out []string
		for i := 0; len(out) < n; i++ {
			s := fmt.Sprintf("node%04d", i)
			if sv.ShardFor(s) == shard {
				out = append(out, s)
			}
		}
		return out
	}
	key := 0
	mkBatch := func(shard, n int) []Edge[float64] {
		srcs := srcFor(shard, n)
		edges := make([]Edge[float64], n)
		for i := range edges {
			edges[i] = Weighted(fmtKey(key), srcs[i], fmt.Sprintf("dst%02d", key%7), float64(key%5)+1, float64(key%3)+1)
			key++
		}
		return edges
	}
	var acked [][]Edge[float64]
	appendAcked := func(b []Edge[float64]) {
		t.Helper()
		if err := sv.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
		acked = append(acked, b)
	}

	for s := 0; s < shards; s++ {
		appendAcked(mkBatch(s, 4))
	}

	// The sick shard's directory goes bad: every write to it fails
	// with ENOSPC. Siblings are untouched.
	inj.Arm(iofault.Rule{Op: iofault.OpWrite, Path: fmt.Sprintf("shard-%03d", sick), Kind: iofault.ENOSPC})

	err = sv.Append(mkBatch(sick, 3))
	if err == nil {
		t.Fatal("ingest to the sick shard must shed")
	}
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("sick-shard append: want ErrReadOnly wrapping ENOSPC, got %v", err)
	}
	beforeEpochs := sv.Stats().Epochs

	// Healthy siblings keep accepting their rows.
	appendAcked(mkBatch(0, 3))
	appendAcked(mkBatch(2, 2))
	if err := sv.Append(mkBatch(sick, 2)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("sick shard must keep shedding, got %v", err)
	}

	agg, per := sv.StorageHealth()
	if agg.State != StorageReadOnly || agg.Faults == 0 {
		t.Fatalf("aggregate health = %+v, want read-only (worst shard)", agg)
	}
	if per[sick].State != StorageReadOnly {
		t.Fatalf("sick shard health = %+v, want read-only", per[sick])
	}
	for s := 0; s < shards; s++ {
		if s != sick && per[s].State != StorageOK {
			t.Fatalf("healthy shard %d reports %+v", s, per[s])
		}
	}

	// Reads still gather ALL shards at their last good epochs.
	snap, err := sv.Snapshot()
	if err != nil {
		t.Fatalf("scatter-gather read while one shard is sick: %v", err)
	}
	if snap.Epochs[sick] != beforeEpochs[sick] {
		t.Fatalf("sick shard pinned epoch %d, want its last good %d", snap.Epochs[sick], beforeEpochs[sick])
	}
	if snap.Adjacency == nil {
		t.Fatal("no gathered adjacency while sick")
	}

	// The fault clears, the process restarts: recovery must be
	// bit-identical to the acked history (the sick shard's refused
	// batches never reached its log, so acked == recovered exactly).
	inj.Clear()
	sv.Abort()
	rv, err := Open(dir, ops, shards, Options{}, DurableOptions[float64]{})
	if err != nil {
		t.Fatalf("reopen after fault cleared: %v", err)
	}
	defer rv.Close()

	control := memStore(t, ops, shards, Options{})
	for _, b := range acked {
		if err := control.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	got, want := flatSnap(t, rv), flatSnap(t, control)
	snapEqual(t, got, want, "sharded recovery after sick shard cleared")
	if aggR, _ := rv.StorageHealth(); aggR.State != StorageOK {
		t.Fatalf("recovered store health = %+v, want ok", aggR)
	}
}

func countTmp(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// countFS counts what reaches the filesystem seam: Write and Sync calls
// per file, and every other mutating operation in one bucket.
type countFS struct {
	iofault.FS
	mu     sync.Mutex
	writes map[string]int // by shard directory / file name
	syncs  map[string]int
	other  []string
}

type countFile struct {
	iofault.File
	c *countFS
}

func (c *countFS) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes, c.syncs, c.other = map[string]int{}, map[string]int{}, nil
}

// inShard names a file by its last two path elements: the shards' WAL
// segments share their base names.
func inShard(name string) string {
	return filepath.Join(filepath.Base(filepath.Dir(name)), filepath.Base(name))
}

func (c *countFS) note(op, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.other = append(c.other, op+" "+inShard(name))
}

func (c *countFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		c.note("open-for-write", name)
	}
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{f, c}, nil
}

func (c *countFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	c.note("create-temp", pattern)
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countFile{f, c}, nil
}

func (c *countFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	c.note("write-file", name)
	return c.FS.WriteFile(name, data, perm)
}
func (c *countFS) MkdirAll(path string, perm fs.FileMode) error {
	c.note("mkdir-all", path)
	return c.FS.MkdirAll(path, perm)
}
func (c *countFS) Remove(name string) error { c.note("remove", name); return c.FS.Remove(name) }
func (c *countFS) Rename(o, n string) error { c.note("rename", n); return c.FS.Rename(o, n) }
func (c *countFS) SyncDir(dir string) error { c.note("sync-dir", dir); return c.FS.SyncDir(dir) }
func (c *countFS) Truncate(name string, size int64) error {
	c.note("truncate", name)
	return c.FS.Truncate(name, size)
}

func (f *countFile) Write(p []byte) (int, error) {
	f.c.mu.Lock()
	f.c.writes[inShard(f.Name())]++
	f.c.mu.Unlock()
	return f.File.Write(p)
}

func (f *countFile) Sync() error {
	f.c.mu.Lock()
	f.c.syncs[inShard(f.Name())]++
	f.c.mu.Unlock()
	return f.File.Sync()
}

// What a durable append costs at the filesystem seam, under the default
// fsync-per-append policy: a batch routed to one shard is one Write and
// one Sync on that shard's open WAL segment, and nothing else — no second
// write for a header, no directory sync, no file opened.
func TestAppendIsOneWriteOneSync(t *testing.T) {
	ops := plusTimes(t)
	for _, shards := range []int{1, 2} {
		cfs := &countFS{FS: iofault.OS}
		cfs.reset()
		st, err := Open(t.TempDir(), ops, shards, Options{}, DurableOptions[float64]{FS: cfs})
		if err != nil {
			t.Fatalf("%d shards: Open: %v", shards, err)
		}
		// One source per shard, so a batch is routed whole to the shard
		// of its choosing.
		srcOf := make([]string, shards)
		for i, found := 0, 0; found < shards; i++ {
			src := fmt.Sprintf("s%d", i)
			if sh := st.ShardFor(src); srcOf[sh] == "" {
				srcOf[sh] = src
				found++
			}
		}
		k := 0
		batchFor := func(sh int) []Edge[float64] {
			b := make([]Edge[float64], 5)
			for i := range b {
				b[i] = Weighted(fmtKey(k), srcOf[sh], fmt.Sprintf("d%d", k%7), 1.5, 2)
				k++
			}
			return b
		}
		for sh := 0; sh < shards; sh++ { // warm-up: every segment is open and has been written to
			for i := 0; i < 2; i++ {
				if err := st.Append(batchFor(sh)); err != nil {
					t.Fatalf("%d shards: warm-up: %v", shards, err)
				}
			}
		}

		cfs.reset()
		const n = 12
		perShard := make([]int, shards)
		for i := 0; i < n; i++ {
			sh := (i % 3) % shards // unevenly: 8 and 4 of 12 on two shards
			perShard[sh]++
			if err := st.Append(batchFor(sh)); err != nil {
				t.Fatalf("%d shards: append %d: %v", shards, i, err)
			}
		}
		// Nothing runs in the background (no checkpoint trigger is set),
		// so the counts are read without the lock.
		writes, syncs, other := cfs.writes, cfs.syncs, cfs.other
		if len(other) != 0 {
			t.Errorf("%d shards: %d appends also did %v", shards, n, other)
		}
		if len(writes) != shards || len(syncs) != shards {
			t.Errorf("%d shards: writes touched %v, syncs %v; want one WAL segment per shard", shards, writes, syncs)
		}
		var got []int
		for name, w := range writes {
			if !strings.HasPrefix(filepath.Base(name), "wal-") || syncs[name] != w {
				t.Errorf("%d shards: %s saw %d writes and %d syncs", shards, name, w, syncs[name])
			}
			got = append(got, w)
		}
		slices.Sort(got)
		want := slices.Clone(perShard)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%d shards: writes per segment %v, want one per routed batch %v", shards, got, want)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A shard-NNN directory is made by its WAL writer, which syncs that
// directory and not the root its entry lives in. Open syncs the root once
// the last of them exists — before it returns, so before any batch can be
// acknowledged — and a store at the root, which has no such entry, pays
// no sync it did not pay before; a root that cannot be synced is a store
// that did not open.
func TestOpenSyncsTheRootAfterTheShardDirectories(t *testing.T) {
	ops := plusTimes(t)
	opened := func(shards int, fsys iofault.FS) (dir string, trace []string, err error) {
		dir = t.TempDir()
		cfs := &countFS{FS: fsys}
		cfs.reset()
		st, err := Open(dir, ops, shards, Options{}, DurableOptions[float64]{FS: cfs})
		trace = slices.Clone(cfs.other) // what Open did, before any Append
		if err == nil {
			err = st.Close()
		}
		return dir, trace, err
	}

	dir, trace, err := opened(3, iofault.OS)
	if err != nil {
		t.Fatal(err)
	}
	rootSync := "sync-dir " + inShard(dir)
	lastMkdir := slices.Index(trace, "mkdir-all "+inShard(filepath.Join(dir, "shard-002")))
	if lastMkdir < 0 || !slices.Contains(trace[lastMkdir:], rootSync) {
		t.Errorf("3 shards: no %q after shard-002 was made (at %d) in %q", rootSync, lastMkdir, trace)
	}

	dir, trace, err = opened(1, iofault.OS)
	if err != nil {
		t.Fatal(err)
	}
	rootSync = "sync-dir " + inShard(dir)
	n := 0
	for _, op := range trace {
		if op == rootSync {
			n++
		}
	}
	if n != 1 {
		t.Errorf("1 shard at the root: %d root syncs in %q, want the one for its first WAL segment", n, trace)
	}

	// The 6th sync of a fresh 3-shard open is the root's last: the SHARDS
	// file, the root for its rename, and one directory sync per shard's
	// first segment come before it.
	inj := iofault.New()
	inj.Arm(iofault.Rule{Op: iofault.OpSync, Kind: iofault.EIO, After: 5})
	dir, trace, err = opened(3, iofault.Wrap(iofault.OS, inj))
	if !errors.Is(err, iofault.ErrInjected) || trace[len(trace)-1] != "sync-dir "+inShard(dir) {
		t.Errorf("a root that cannot be synced: Open = %v after %q, want the injected fault on the last root sync", err, trace)
	}
}
