package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/iofault"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/wal"
)

// validateView checks, from the outside and sharing no code with the
// decoders, every invariant a freshly opened view must satisfy: parallel
// log columns, ascending keys, position maps that are bijections onto
// key Sets holding the interners' keys in sorted order, every logged
// endpoint inside the universe, and an adjacency of that shape.
func validateView[V any](v *View[V]) error {
	n := len(v.srcID)
	if len(v.dstID) != n || v.out != nil && len(v.out) != n || v.in != nil && len(v.in) != n {
		return fmt.Errorf("log columns %d/%d/%d/%d", n, len(v.dstID), len(v.out), len(v.in))
	}
	ks, _, _ := spelledLog(v)
	for i := 1; i < n; i++ {
		if ks[i-1] >= ks[i] {
			return fmt.Errorf("edge keys not ascending at %d", i)
		}
	}
	if v.synced != n || v.folded != n {
		return fmt.Errorf("synced %d and folded %d of %d edges", v.synced, v.folded, n)
	}
	if v.appends < 0 || v.epoch.Load() < 0 || v.autoSeq < 0 {
		return fmt.Errorf("negative counters: appends %d epoch %d autoSeq %d", v.appends, v.epoch.Load(), v.autoSeq)
	}
	side := func(name string, in *keys.Interner, pos []int32, set *keys.Set, ids []int32) error {
		if len(pos) > in.Len() {
			return fmt.Errorf("%s position map longer than its interner", name)
		}
		seen := make([]bool, set.Len())
		for id, p := range pos {
			if p < 0 {
				continue
			}
			if int(p) >= set.Len() || seen[p] || set.Key(int(p)) != in.Key(int32(id)) {
				return fmt.Errorf("%s id %d maps to position %d, which is not its key's", name, id, p)
			}
			seen[p] = true
			if at, ok := set.Index(in.Key(int32(id))); !ok || at != int(p) {
				return fmt.Errorf("%s key of id %d resolves to %d (%v), want %d", name, id, at, ok, p)
			}
		}
		for p, s := range seen {
			if !s || p > 0 && set.Key(p-1) >= set.Key(p) {
				return fmt.Errorf("%s universe position %d unmapped or out of order", name, p)
			}
		}
		for i, id := range ids {
			if id < 0 || int(id) >= len(pos) || pos[id] < 0 {
				return fmt.Errorf("edge %d names %s id %d outside the universe", i, name, id)
			}
		}
		return nil
	}
	if err := side("source", v.srcIn, v.srcPos, v.uRows, v.srcID); err != nil {
		return err
	}
	if err := side("destination", v.dstIn, v.dstPos, v.uCols, v.dstID); err != nil {
		return err
	}
	if v.main.RowKeys() != v.uRows || v.main.ColKeys() != v.uCols {
		return fmt.Errorf("adjacency does not span the universe")
	}
	return v.main.Matrix().Validate()
}

// spelledLog returns a view's key and value columns as the log means
// them, whatever it stores: every generated key formatted, every unit
// weight present.
func spelledLog[V any](v *View[V]) (ks []string, out, in []V) {
	n := len(v.srcID)
	ones := func(col []V) []V {
		if col != nil {
			return col
		}
		col = make([]V, n)
		for i := range col {
			col[i] = v.ops.One
		}
		return col
	}
	return v.keys.spell(n), ones(v.out), ones(v.in)
}

// sameView compares everything a checkpoint carries — the log by what it
// means: a run and the keys it generates are the same column.
func sameView(a, b *View[float64]) error {
	eq := func(x, y float64) bool { return x == y || x != x && y != y }
	aKeys, aOut, aIn := spelledLog(a)
	bKeys, bOut, bIn := spelledLog(b)
	switch {
	case !slices.Equal(aKeys, bKeys):
		return errors.New("edge keys differ")
	case !slices.Equal(a.srcID, b.srcID) || !slices.Equal(a.dstID, b.dstID):
		return errors.New("endpoint ids differ")
	case !slices.EqualFunc(aOut, bOut, eq) || !slices.EqualFunc(aIn, bIn, eq):
		return errors.New("incidence values differ")
	case !slices.Equal(a.srcPos, b.srcPos) || !slices.Equal(a.dstPos, b.dstPos):
		return errors.New("position maps differ")
	case a.srcIn.Len() != b.srcIn.Len() || a.dstIn.Len() != b.dstIn.Len():
		return errors.New("interner sizes differ")
	case !a.main.Equal(b.main, eq):
		return errors.New("adjacency differs")
	case a.appends != b.appends || a.epoch.Load() != b.epoch.Load() || a.autoSeq != b.autoSeq || a.autoBase != b.autoBase || a.exact != b.exact:
		return errors.New("counters differ")
	}
	for id := int32(0); id < int32(a.srcIn.Len()); id++ {
		if a.srcIn.Key(id) != b.srcIn.Key(id) {
			return fmt.Errorf("source key %d differs", id)
		}
	}
	for id := int32(0); id < int32(a.dstIn.Len()); id++ {
		if a.dstIn.Key(id) != b.dstIn.Key(id) {
			return fmt.Errorf("destination key %d differs", id)
		}
	}
	return nil
}

// memFS is the filesystem of one checkpoint write, kept in memory: the
// temp file's bytes and nothing else (any other call is a nil-pointer
// panic, which is the point).
type memFS struct {
	iofault.FS
	file []byte
}

type memFile struct {
	iofault.File
	fs *memFS
}

func (m *memFS) MkdirAll(string, fs.FileMode) error { return nil }
func (m *memFS) Rename(string, string) error        { return nil }
func (m *memFS) SyncDir(string) error               { return nil }
func (m *memFS) CreateTemp(string, string) (iofault.File, error) {
	m.file = nil
	return memFile{fs: m}, nil
}

func (f memFile) Write(p []byte) (int, error) {
	f.fs.file = append(f.fs.file, p...)
	return len(p), nil
}
func (f memFile) Sync() error  { return nil }
func (f memFile) Close() error { return nil }
func (f memFile) Name() string { return "ckpt-mem.tmp" }

// writeImage checkpoints a bare view the way a partition does — fold,
// pin, stream — and returns the file's bytes.
func writeImage(t testing.TB, v *View[float64]) []byte {
	t.Helper()
	v.mu.Lock()
	if err := v.materializeLocked(); err != nil {
		t.Fatal(err)
	}
	im := v.imageLocked()
	v.mu.Unlock()
	var mem memFS
	_, size, err := wal.WriteCheckpointFS(&mem, "", uint64(im.epoch), func(w *wal.CheckpointWriter) error {
		return im.encode(w, Float64Codec())
	})
	if err != nil || int64(len(mem.file)) != size {
		t.Fatalf("checkpoint: %d bytes written, %d reported (%v)", len(mem.file), size, err)
	}
	return mem.file
}

// readImage decodes checkpoint file bytes back into a view.
func readImage(buf []byte, ops semiring.Ops[float64]) (*View[float64], error) {
	ck, err := wal.ParseCheckpoint("mem", buf)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(ck, ops, Options{}, Float64Codec())
}

// sectionOffsets returns where each section's body starts in a format-2
// file, then where the footer starts.
func sectionOffsets(t testing.TB, buf []byte) []int {
	t.Helper()
	ck, err := wal.ParseCheckpoint("", buf)
	if err != nil {
		t.Fatal(err)
	}
	const header, trailer = 24, 16
	offs := []int{header}
	for _, s := range ck.Sections {
		offs = append(offs, offs[len(offs)-1]+(len(s.Body)+7)&^7+trailer)
	}
	if end := offs[len(offs)-1]; end != len(buf)-24 {
		t.Fatalf("sections end at %d, footer starts at %d", end, len(buf)-24)
	}
	return offs
}

// An unchanged view is not checkpointed again: no value is encoded and
// the filesystem is not touched — every operation is armed to fail, and
// none does. (Every Close right after a background checkpoint and every
// interval tick of an idle store take this path.)
func TestCheckpointOfUnchangedViewDoesNothing(t *testing.T) {
	inj := iofault.New()
	encoded := 0
	codec := Float64Codec()
	counting := ValueCodec[float64]{
		Append: func(dst []byte, v float64) []byte { encoded++; return codec.Append(dst, v) },
		Decode: codec.Decode,
	}
	st, err := Open(t.TempDir(), plusTimes(t), 1, Options{}, DurableOptions[float64]{FS: iofault.Wrap(iofault.OS, inj), Codec: counting})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, b := range durableBatches(41, 3, 6) {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st.Durability()[0].Checkpoints != 1 {
		t.Fatalf("durability = %+v, want one checkpoint", st.Durability()[0])
	}
	encoded = 0
	inj.Arm(iofault.Rule{Op: iofault.OpAny, Kind: iofault.EIO})
	for i := 0; i < 3; i++ {
		if err := st.Checkpoint(); err != nil {
			t.Fatalf("checkpoint of an unchanged view: %v", err)
		}
	}
	if encoded != 0 || inj.Injected() != 0 {
		t.Errorf("an unchanged view cost %d value encodes and %d filesystem calls, want 0 and 0", encoded, inj.Injected())
	}
	if d := st.Durability()[0]; d.Checkpoints != 1 || d.Storage.State != StorageOK {
		t.Errorf("durability after no-op checkpoints = %+v", d)
	}
	inj.Clear()
}

// gateFS holds every write to a checkpoint temp file until released.
type gateFS struct {
	iofault.FS
	reached chan struct{} // closed when the first such write arrives
	release chan struct{}
	once    sync.Once
}

type gateFile struct {
	iofault.File
	g *gateFS
}

func (g *gateFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	f, err := g.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &gateFile{f, g}, nil
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.g.once.Do(func() { close(f.g.reached) })
	<-f.g.release
	return f.File.Write(p)
}

// The view lock is not held while a checkpoint is encoded or written:
// with the checkpoint's first Write blocked — the file is several
// buffers long, so most of it is not even encoded yet — Snapshot and
// Stats answer, and an append that reaches the view meanwhile is not in
// the file: the image is the view at the epoch it was pinned at.
func TestCheckpointDoesNotHoldTheViewLock(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	gate := &gateFS{FS: iofault.OS, reached: make(chan struct{}), release: make(chan struct{})}
	st, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{FS: gate})
	if err != nil {
		t.Fatal(err)
	}
	batches := durableBatches(42, 6, 4000)
	for _, b := range batches[:5] {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // a failure below must not leave the checkpoint goroutine stuck
	done := make(chan error, 1)
	go func() { done <- st.Checkpoint() }()
	select {
	case <-gate.reached:
	case err := <-done:
		t.Fatalf("checkpoint finished without writing: %v", err)
	}

	answered := make(chan Snapshot[float64], 1)
	go func() {
		// Straight to the view, past the partition lock the checkpoint
		// holds: what this batch adds must not reach the file.
		if err := st.parts[0].v.Append(batches[5]); err != nil {
			t.Error(err)
		}
		// And one that grows the interners the image holds prefixes of.
		fresh := make([]Edge[float64], 300)
		for i := range fresh {
			fresh[i] = Edge[float64]{Key: fmt.Sprintf("z%04d", i), Src: fmt.Sprintf("new-src-%d", i), Dst: fmt.Sprintf("new-dst-%d", i)}
		}
		if err := st.parts[0].v.Append(fresh); err != nil {
			t.Error(err)
		}
		st.Stats()
		snap, err := st.parts[0].v.Snapshot()
		if err != nil {
			t.Error(err)
		}
		answered <- snap
	}()
	var during Snapshot[float64]
	select {
	case during = <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("Append, Stats and Snapshot waited on a checkpoint blocked in Write")
	}
	if during.Epoch != 7 {
		t.Fatalf("snapshot during the checkpoint is at epoch %d, want 7", during.Epoch)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ckpt-0000000000000005.ckpt")
	buf, err := os.ReadFile(path)
	if err != nil || len(buf) < 512<<10 {
		t.Fatalf("checkpoint file: %d bytes, %v; want several buffers' worth", len(buf), err)
	}
	got, err := readImage(buf, ops)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, mustSnap(t, got), controlView(t, batches, 5, ops), "the image written while the view moved on")
	st.Abort()
}

// What one checkpoint allocates does not depend on how much the view
// holds: an O(1) image and one fixed buffer, whatever the log's length.
// Two stores over the same 1,000 vertices, one with 10k and one with
// 300k logged edges, take a batch and checkpoint; the typical (median)
// checkpoint must allocate the same on both.
func TestCheckpointCostIndependentOfLogSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const per = 256
	typical := func(logged int) (bytes, allocs uint64, size int64) {
		st, err := Open(t.TempDir(), plusTimes(t), 1, Options{}, DurableOptions[float64]{WAL: wal.Options{Policy: wal.SyncNever}})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		r := rand.New(rand.NewSource(7))
		batch := make([]Edge[float64], per)
		next := func() {
			for i := range batch {
				batch[i] = Edge[float64]{Src: fmt.Sprintf("v%03d", r.Intn(1000)), Dst: fmt.Sprintf("v%03d", r.Intn(1000))}
			}
			if err := st.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		for n := 0; n < logged; n += per {
			next()
		}
		if err := st.Checkpoint(); err != nil { // retires the log's segments
			t.Fatal(err)
		}
		const rounds = 7
		var bs, as []uint64
		var before, after runtime.MemStats
		for i := 0; i < rounds; i++ {
			next()
			// The fold belongs to the batch, not to the checkpoint.
			if _, err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bs = append(bs, after.TotalAlloc-before.TotalAlloc)
			as = append(as, after.Mallocs-before.Mallocs)
		}
		slices.Sort(bs)
		slices.Sort(as)
		return bs[rounds/2], as[rounds/2], st.Durability()[0].CheckpointBytes
	}
	smallB, smallA, smallSize := typical(10_000)
	largeB, largeA, largeSize := typical(300_000)
	t.Logf("median per checkpoint: %d B / %d allocs for a %d-byte file at 10k edges, %d B / %d allocs for %d bytes at 300k",
		smallB, smallA, smallSize, largeB, largeA, largeSize)
	within := func(a, b uint64) bool { return 10*a <= 11*b && 10*b <= 11*a }
	if !within(smallB, largeB) || !within(smallA, largeA) {
		t.Errorf("checkpoint cost grows with the log: %d B / %d allocs at 10k edges, %d B / %d allocs at 300k",
			smallB, smallA, largeB, largeA)
	}
	if largeSize < 20*smallSize {
		t.Errorf("the files themselves should differ: %d and %d bytes", smallSize, largeSize)
	}
}

// sizedView appends edges edges that walk the cells of a 700 × 90
// universe in turn, so that 63,000 of them saturate the adjacency:
// unkeyed and unweighted, or — spelled — under given thirteen-byte keys
// with both weights.
func sizedView(t testing.TB, edges int, spelled bool) *View[float64] {
	t.Helper()
	v := NewView(plusTimes(t), Options{})
	const per = 256
	for n := 0; n < edges; n += per {
		batch := make([]Edge[float64], per)
		for i := range batch {
			batch[i] = Edge[float64]{Src: fmt.Sprintf("s%d", (n+i)%700), Dst: fmt.Sprintf("d%d", (n+i)/700%90)}
			if spelled {
				batch[i].Key = fmt.Sprintf("k%012d", n+i)
				batch[i].Out, batch[i].In, batch[i].HasOut, batch[i].HasIn = 2, 3, true, true
			}
		}
		if err := v.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// The size of a checkpoint, to the byte, for a float64 view: the formula
// is the format. A log of generated keys and unit weights stores its two
// id columns and nothing else per edge; given keys and weights are stored
// as they always were.
func TestCheckpointFileSize(t *testing.T) {
	const edges, key = 4096, 13 // "e" or "k" and twelve digits
	for _, arm := range []struct {
		name            string
		spelled         bool
		base            string
		keyOff, keySlab int
		vals            int
	}{
		{name: "implicit", base: "e"},
		{name: "spelled", spelled: true, keyOff: 4 * edges, keySlab: key * edges, vals: 8 * edges},
	} {
		t.Run(arm.name, func(t *testing.T) {
			v := sizedView(t, edges, arm.spelled)
			buf := writeImage(t, v)
			snap := mustSnap(t, v)
			rows, cols := snap.Adjacency.Shape()
			nnz := snap.Adjacency.NNZ()
			srcBytes, dstBytes := v.srcIn.Stats().SlabBytes, v.dstIn.Stats().SlabBytes

			pad := func(n int) int { return (n + 7) &^ 7 }
			const header, footer, trailer = 24, 24, 16
			sections := []int{
				7*8 + (1 + len(v.ops.Name)) + (1 + len(arm.base)), // meta: seven counters, the algebra's name, the key base
				4 * rows, srcBytes, // source interner: an offset per key, the key bytes
				4 * cols, dstBytes, // destination interner
				4 * rows, 4 * cols, // id → position, both sides
				arm.keyOff, arm.keySlab, // edge keys: an offset each, the key bytes — or nothing
				4 * edges, 4 * edges, // source id, destination id
				arm.vals, arm.vals, // Eout and Ein values — or nothing
				8 * (rows + 1), 4 * nnz, 8 * nnz, // adjacency: row pointer, columns, values
			}
			want := header + footer
			for _, n := range sections {
				want += pad(n) + trailer
			}
			if len(buf) != want {
				t.Fatalf("checkpoint is %d bytes, the format says %d", len(buf), want)
			}
			// The same, as rates: 8 B of id columns per edge, plus — spelled
			// out — 16 B of values, a 4 B offset and the key; 12 B per
			// adjacency entry; 8 B and the key per vertex and side, 8 more
			// per row for its pointer; and a fixed 16 sections' framing.
			perEdge := 8 + (arm.keyOff+arm.keySlab+2*arm.vals)/edges
			rates := perEdge*edges + 12*nnz + (8*rows + srcBytes) + (8*cols + dstBytes) + 8*(rows+1)
			if framing := want - rates; framing < 0 || framing > header+footer+16*(trailer+7)+64 {
				t.Errorf("%d bytes are not accounted for by the per-edge, per-entry and per-vertex rates", framing)
			}
			t.Logf("%d edges, %d×%d universe, %d entries: %d bytes, %.1f B per log edge", edges, rows, cols, nnz, len(buf), float64(len(buf))/edges)
		})
	}
}

// What one more logged edge adds to a checkpoint, exactly, with the
// universe and the adjacency pattern saturated so that nothing else
// grows: the two endpoint ids of an unkeyed unit edge, 8 bytes; 33 more
// — two values, a key offset, a thirteen-byte key — for one that spells
// its key and weights out.
func TestCheckpointBytesPerEdge(t *testing.T) {
	const small, large = 1 << 16, 1 << 17
	for _, arm := range []struct {
		name    string
		spelled bool
		want    int
	}{{"implicit", false, 8}, {"spelled", true, 8 + 16 + 4 + 13}} {
		a, b := sizedView(t, small, arm.spelled), sizedView(t, large, arm.spelled)
		if an, bn := mustSnap(t, a).Adjacency.NNZ(), mustSnap(t, b).Adjacency.NNZ(); an != 700*90 || bn != an {
			t.Fatalf("%s: adjacency not saturated (%d and %d entries of %d)", arm.name, an, bn, 700*90)
		}
		if grew := len(writeImage(t, b)) - len(writeImage(t, a)); grew != arm.want*(large-small) {
			t.Errorf("%s log: %d more edges add %d bytes to the checkpoint, want exactly %d each", arm.name, large-small, grew, arm.want)
		}
	}
}

// Opening a checkpoint allocates per section, not per edge: the log
// columns, the key slab and the adjacency arrays are one allocation
// each, however many edges they hold.
func TestCheckpointDecodeAllocsIndependentOfEdges(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ops := plusTimes(t)
	allocs := func(edges int) float64 {
		v := NewView(ops, Options{})
		r := rand.New(rand.NewSource(5))
		verts := func(i int) string { return fmt.Sprintf("v%03d", i) }
		batch := make([]Edge[float64], 250)
		for n := 0; n < edges; n += len(batch) {
			for i := range batch {
				// The first batch names every vertex, so both sizes share
				// one universe.
				batch[i] = Edge[float64]{Src: verts((n + i) % 250), Dst: verts(r.Intn(250))}
			}
			if err := v.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		buf := writeImage(t, v)
		return testing.AllocsPerRun(10, func() {
			got, err := readImage(buf, ops)
			if err != nil || len(got.srcID) != edges {
				t.Fatalf("decode: %v", err)
			}
		})
	}
	small, large := allocs(1_000), allocs(50_000)
	t.Logf("decode allocations: %.0f at 1k edges, %.0f at 50k", small, large)
	if small != large {
		t.Errorf("decoding allocates %.0f times at 1k edges and %.0f at 50k; it must not depend on the edge count", small, large)
	}
}

// The round-trip differential: for every registered pair, at one and two
// shards, a store that is checkpointed, killed and reopened again and
// again while its stream goes on — through cells that fold to the
// algebra's zero, vertices that arrive sorting before, between and after
// the known ones, and batches that roll back and leave orphan ids —
// equals at every reopening an in-memory store that took the same
// batches, whose adjacency equals the one-shot construction over its
// log (where the algebra's zero is a ⊕-identity on its sample, the delta
// identity's hypothesis: max.+@0 over signed reals prunes a 0 that a
// later −2 would have lost to). The empty view round-trips at the image
// level (a store does not checkpoint epoch 0).
func TestCheckpointRoundTripEveryPair(t *testing.T) {
	boom := errors.New("rolled back")
	for _, entry := range semiring.Registry() {
		ops := entry.Ops
		// The pair's sample and the zero itself: contributions that vanish.
		weights := append(slices.Clone(entry.Sample), ops.Zero)
		foldsLikeOneShot := semiring.Check(ops, entry.Sample, nil).AddIdentity.Holds

		empty := NewView(ops, Options{})
		got, err := readImage(writeImage(t, empty), ops)
		if err != nil {
			t.Fatalf("%s: empty view: %v", ops.Name, err)
		}
		if err := validateView(got); err != nil {
			t.Fatalf("%s: empty view: %v", ops.Name, err)
		}
		if err := sameView(got, empty); err != nil {
			t.Fatalf("%s: empty view: %v", ops.Name, err)
		}

		for _, shards := range []int{1, 2} {
			r := rand.New(rand.NewSource(int64(16 + shards)))
			verts := scatteredVertices(r, 48)
			dir := t.TempDir()
			st, err := Open(dir, ops, shards, Options{}, DurableOptions[float64]{})
			if err != nil {
				t.Fatal(err)
			}
			control := memStore(t, ops, shards, Options{})
			key := 0
			for phase := 0; phase < 6; phase++ {
				reach := 6 + 8*phase // the universe grows phase by phase
				for b := 0; b < 3; b++ {
					batch := make([]Edge[float64], 1+r.Intn(20))
					for i := range batch {
						batch[i] = Weighted(fmt.Sprintf("e%05d", key), verts[r.Intn(reach)], verts[r.Intn(reach)],
							weights[r.Intn(len(weights))], weights[r.Intn(len(weights))])
						key++
					}
					if phase%2 == 1 && b == 1 {
						// The same batch first dies after interning, on
						// vertices nothing else names: orphan ids, some of
						// them the newest when the checkpoint is taken.
						doomed := slices.Clone(batch)
						for i := range doomed {
							doomed[i].Src, doomed[i].Dst = fmt.Sprintf("orphan-%d-%d", phase, i), fmt.Sprintf("orphan-%d-%d", phase, i+1)
						}
						for _, p := range st.parts {
							p.v.failpoint = func(site string) error {
								if site == "append:interned" {
									return boom
								}
								return nil
							}
						}
						if err := st.Append(doomed); !errors.Is(err, boom) {
							t.Fatalf("%s: doomed batch: %v", ops.Name, err)
						}
						for _, p := range st.parts {
							p.v.failpoint = nil
						}
					}
					if err := st.Append(batch); err != nil {
						t.Fatalf("%s/%d shards: %v", ops.Name, shards, err)
					}
					if err := control.Append(batch); err != nil {
						t.Fatal(err)
					}
				}
				if phase%3 != 2 { // two phases in three end in a checkpoint, the third in a WAL tail
					if err := st.Checkpoint(); err != nil {
						t.Fatalf("%s/%d shards: checkpoint: %v", ops.Name, shards, err)
					}
				}
				st.Abort()
				if st, err = Open(dir, ops, shards, Options{}, DurableOptions[float64]{}); err != nil {
					t.Fatalf("%s/%d shards, phase %d: reopen: %v", ops.Name, shards, phase, err)
				}
				label := fmt.Sprintf("%s/%d shards, phase %d", ops.Name, shards, phase)
				for i, p := range st.parts {
					if err := validateView(p.v); err != nil && p.recovery.Replayed == 0 {
						t.Fatalf("%s: shard %d: %v", label, i, err)
					}
				}
				got, want := flatSnap(t, st), flatSnap(t, control)
				eq := func(a, b float64) bool { return ops.Equal(a, b) }
				wantOut, wantIn := mustLogs(t, want)
				gotOut, gotIn := mustLogs(t, got)
				if got.Edges != want.Edges || !got.Adjacency.Equal(want.Adjacency, eq) || !gotOut.Equal(wantOut, eq) || !gotIn.Equal(wantIn, eq) {
					t.Fatalf("%s: the reopened store differs from the in-memory one", label)
				}
				oneShot, err := assoc.Correlate(wantOut, wantIn, ops, assoc.MulOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if foldsLikeOneShot && !got.Adjacency.Equal(oneShot, eq) {
					t.Fatalf("%s: the reopened adjacency differs from the one-shot construction", label)
				}
			}
			st.Abort()
		}
	}
}

// faultedStore is a durable store with one good checkpoint at epoch 4,
// two batches past it, and an injector on its filesystem. Its batches
// are large enough that a checkpoint is several buffers long.
func faultedStore(t *testing.T, dir string, batches [][]Edge[float64]) (*Store[float64], *iofault.Injector) {
	t.Helper()
	inj := iofault.New()
	st, err := Open(dir, plusTimes(t), 1, Options{}, DurableOptions[float64]{
		FS: iofault.Wrap(iofault.OS, inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches[:6] {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st, inj
}

// A checkpoint is a Write per buffer now, not one. Failing any one of
// them — or the temp file's Sync, the Rename, the directory Sync — for
// good leaves the
// shard degraded, never read-only: the temp file is reaped, appends stay
// durable through the WAL, and after a crash the previous checkpoint
// plus a longer replay restores everything.
func TestCheckpointFaultAtEveryCall(t *testing.T) {
	ops := plusTimes(t)
	batches := durableBatches(43, 8, 2500)
	rules := []struct {
		name string
		rule iofault.Rule
	}{
		{"write", iofault.Rule{Op: iofault.OpWrite, Path: ".tmp", Kind: iofault.ENOSPC}},
		{"short-write", iofault.Rule{Op: iofault.OpWrite, Path: ".tmp", Kind: iofault.ShortWrite}},
		{"sync", iofault.Rule{Op: iofault.OpSync, Kind: iofault.EIO}}, // the temp file's, then the directory's
		{"rename", iofault.Rule{Op: iofault.OpRename, Kind: iofault.EIO}},
	}
	for _, tc := range rules {
		calls := 0
		for after := 0; ; after++ {
			dir := t.TempDir()
			st, inj := faultedStore(t, dir, batches)
			rule := tc.rule
			rule.After = after
			inj.Arm(rule)
			err := st.Checkpoint()
			if inj.Injected() == 0 {
				if err != nil {
					t.Fatalf("%s: unfaulted checkpoint: %v", tc.name, err)
				}
				st.Abort()
				break
			}
			calls++
			label := fmt.Sprintf("%s call %d", tc.name, after)
			if !errors.Is(err, iofault.ErrInjected) {
				t.Fatalf("%s: checkpoint err = %v, want the injected fault", label, err)
			}
			h, _ := st.StorageHealth()
			if h.State != StorageDegraded || h.Err == "" {
				t.Fatalf("%s: health = %+v, want degraded", label, h)
			}
			if n := countTmp(t, dir); n != 0 {
				t.Fatalf("%s: %d temp files left", label, n)
			}
			inj.Clear()
			if err := st.Append(batches[6]); err != nil {
				t.Fatalf("%s: a degraded shard must keep accepting appends: %v", label, err)
			}
			if d := st.Durability()[0]; d.DurableEpoch != 7 || d.Checkpoints != 1 || d.CheckpointSeq != 4 {
				t.Fatalf("%s: durability = %+v", label, d)
			}
			st.Abort()

			re, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{})
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			rec := re.Recovery()[0]
			// Only a failed directory sync leaves the new file published.
			published := tc.name == "sync" && rec.CheckpointSeq == 6
			if !published && (rec.CheckpointSeq != 4 || rec.Replayed != 3) || rec.SkippedCheckpoints != 0 {
				t.Fatalf("%s: recovery = %+v, want the previous checkpoint and three batches replayed", label, rec)
			}
			snapEqual(t, flatSnap(t, re), controlView(t, batches, 7, ops), label)
			re.Abort()
		}
		if tc.name == "write" && calls < 3 {
			t.Errorf("a checkpoint of 15,000 edges made only %d Write calls", calls)
		}
	}
}

// Damage to the newest checkpoint — a flipped byte in any one section, a
// cut at any section boundary — is a CorruptError for that file and
// nothing more: recovery falls back to the checkpoint before it and
// replays the longer tail.
func TestCheckpointDamagePerSectionFallsBack(t *testing.T) {
	ops := plusTimes(t)
	batches := durableBatches(44, 9, 8)
	master := t.TempDir()
	st, err := Open(master, ops, 1, Options{}, DurableOptions[float64]{})
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
	newest := "ckpt-0000000000000007.ckpt"
	clean, err := os.ReadFile(filepath.Join(master, newest))
	if err != nil {
		t.Fatal(err)
	}
	offs := sectionOffsets(t, clean)
	if len(offs) != numSections+1 {
		t.Fatalf("%d sections in the file, want %d", len(offs)-1, numSections)
	}
	type damage struct {
		name string
		file []byte
	}
	var cases []damage
	for i, off := range offs {
		if i < numSections {
			flipped := slices.Clone(clean)
			flipped[off] ^= 0x10
			cases = append(cases, damage{fmt.Sprintf("section %d flipped", i+1), flipped})
		}
		cases = append(cases, damage{fmt.Sprintf("cut before section %d", i+1), clean[:off]})
		cases = append(cases, damage{fmt.Sprintf("cut inside section %d", i+1), clean[:off+3]})
	}
	want := controlView(t, batches, len(batches), ops)
	for _, tc := range cases {
		dir := filepath.Join(t.TempDir(), "store")
		if err := os.CopyFS(dir, os.DirFS(master)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, newest)
		if _, err := wal.ParseCheckpoint(path, tc.file); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("%s: parse err = %v, want ErrCorrupt", tc.name, err)
		}
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", tc.name, err)
		}
		if rec := re.Recovery()[0]; rec.SkippedCheckpoints != 1 || rec.CheckpointSeq != 3 || rec.Replayed != 6 {
			t.Fatalf("%s: recovery = %+v, want one skipped, checkpoint 3, six replayed", tc.name, rec)
		}
		snapEqual(t, flatSnap(t, re), want, tc.name)
		re.Abort()
		// Alone, the same file is a typed refusal, not an empty store.
		if err := os.Remove(filepath.Join(dir, "ckpt-0000000000000003.ckpt")); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{}); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("%s: sole damaged checkpoint: Open err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// A stored index word of 2³¹ or more is refused where it is read, as a
// *wal.CorruptError naming its section and byte offset — not decoded into
// a negative int32 for whichever bounds check comes next to stumble on.
// Only a position map may hold "none", and only as 0xFFFFFFFF.
func TestStoredIndexPast31BitsIsRefusedBySectionAndOffset(t *testing.T) {
	ops := plusTimes(t)
	ck, err := wal.ParseCheckpoint("mem", writeImage(t, orphanedView(t, ops)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tag     uint32
		section string
		width   int
		word    uint64
		ok      bool
	}{
		{secSrcPos, "source position", 4, 0x80000000, false},
		{secDstPos, "destination position", 4, 0xfffffffe, false},
		{secSrcID, "source id", 4, 0x80000000, false},
		{secDstID, "destination id", 4, 0xffffffff, false},
		{secColIdx, "adjacency column", 4, 0x80000000, false},
		{secColIdx, "adjacency column", 4, 0xffffffff, false},
		{secRowPtr, "adjacency row pointer", 8, 0x80000000, false},
		{secRowPtr, "adjacency row pointer", 8, 1 << 40, false},
		// "none" in a position map is what a rolled-back batch leaves.
		{secSrcPos, "source position", 4, 0xffffffff, true},
	} {
		body := ck.Sections[tc.tag-1].Body
		if len(body) < 2*tc.width {
			t.Fatalf("the %s section holds %d bytes", tc.section, len(body))
		}
		for _, at := range []int{0, len(body) - tc.width} {
			secs := slices.Clone(ck.Sections)
			mut := slices.Clone(body)
			if tc.width == 4 {
				binary.LittleEndian.PutUint32(mut[at:], uint32(tc.word))
			} else {
				binary.LittleEndian.PutUint64(mut[at:], tc.word)
			}
			secs[tc.tag-1].Body = mut
			_, err := decodeCheckpoint(&wal.Checkpoint{Path: "mem", Seq: ck.Seq, Sections: secs}, ops, Options{}, Float64Codec())
			// What else the view makes of a position gone may still refuse
			// it; the word itself is not the reason.
			var ce *wal.CorruptError
			named := errors.As(err, &ce) && strings.Contains(ce.Reason, tc.section+" section") &&
				strings.Contains(ce.Reason, fmt.Sprintf("byte offset %d ", at))
			if named == tc.ok {
				t.Errorf("%s word %#x at %d: refused by section and offset = %v, want %v (%v)", tc.section, tc.word, at, named, !tc.ok, err)
			}
		}
	}
}

// Sections that pass their checksums and still do not fit together are
// refused as corruption, each by the check that owns it. The bytes are
// re-framed with valid checksums, which is what a fuzzer cannot do.
func TestDecodeSectionsRejectsInconsistency(t *testing.T) {
	ops := plusTimes(t)
	v := controlViewOf(t, durableBatches(45, 3, 7), ops)
	ck, err := wal.ParseCheckpoint("mem", writeImage(t, v))
	if err != nil {
		t.Fatal(err)
	}
	le32 := func(b []byte, x uint32) { b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24) }
	cases := []struct {
		name string
		mut  func(secs []wal.Section) []wal.Section
	}{
		{"a section missing", func(s []wal.Section) []wal.Section { return s[:len(s)-1] }},
		{"sections swapped", func(s []wal.Section) []wal.Section { s[3], s[4] = s[4], s[3]; return s }},
		{"edge count disagrees", func(s []wal.Section) []wal.Section { s[secMeta-1].Body[0]++; return s }},
		{"counter out of range", func(s []wal.Section) []wal.Section { s[secMeta-1].Body[8*2+7] = 0x7f; return s }},
		{"odd-length id array", func(s []wal.Section) []wal.Section { s[secSrcID-1].Body = s[secSrcID-1].Body[:5]; return s }},
		{"id outside the interner", func(s []wal.Section) []wal.Section { le32(s[secSrcID-1].Body, 1<<20); return s }},
		{"negative id", func(s []wal.Section) []wal.Section { le32(s[secDstID-1].Body, 1<<31); return s }},
		{"position not a bijection", func(s []wal.Section) []wal.Section { copy(s[secSrcPos-1].Body[4:8], s[secSrcPos-1].Body[:4]); return s }},
		{"position map too long", func(s []wal.Section) []wal.Section {
			s[secDstPos-1].Body = append(s[secDstPos-1].Body, 0xff, 0xff, 0xff, 0xff)
			return s
		}},
		{"interner offsets not monotone", func(s []wal.Section) []wal.Section { le32(s[secSrcOff-1].Body, 1<<30); return s }},
		{"edge keys out of order", func(s []wal.Section) []wal.Section { s[secKeySlab-1].Body[0] = 'z'; return s }},
		{"key offsets past the slab", func(s []wal.Section) []wal.Section {
			b := s[secKeyOff-1].Body
			le32(b[len(b)-4:], 1<<24)
			return s
		}},
		{"no key offsets beside a key slab", func(s []wal.Section) []wal.Section { s[secKeyOff-1].Body = nil; return s }},
		{"key offsets beside no key slab", func(s []wal.Section) []wal.Section { s[secKeySlab-1].Body = nil; return s }},
		{"no keys stored and no generator to have made them", func(s []wal.Section) []wal.Section {
			s[secKeyOff-1].Body, s[secKeySlab-1].Body = nil, nil
			return s
		}},
		{"values short", func(s []wal.Section) []wal.Section { s[secOut-1].Body = s[secOut-1].Body[8:]; return s }},
		{"values long", func(s []wal.Section) []wal.Section { s[secIn-1].Body = append(s[secIn-1].Body, 0); return s }},
		{"row pointer past the entries", func(s []wal.Section) []wal.Section { s[secRowPtr-1].Body[8+2] = 1; return s }},
		{"row pointer short", func(s []wal.Section) []wal.Section { s[secRowPtr-1].Body = s[secRowPtr-1].Body[8:]; return s }},
		{"column past the universe", func(s []wal.Section) []wal.Section { le32(s[secColIdx-1].Body, 1<<16); return s }},
	}
	for _, tc := range cases {
		secs := make([]wal.Section, len(ck.Sections))
		for i, s := range ck.Sections {
			secs[i] = wal.Section{Tag: s.Tag, Body: slices.Clone(s.Body)}
		}
		_, err := decodeCheckpoint(&wal.Checkpoint{Path: "mem", Seq: ck.Seq, Sections: tc.mut(secs)}, ops, Options{}, Float64Codec())
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
	// A log of generated keys and unit weights stores neither, and what
	// stands in for the keys is the generator in meta: one that has not
	// reached the log's length cannot have made it.
	implicit, err := wal.ParseCheckpoint("mem", writeImage(t, sizedView(t, 512, false)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []uint32{secKeyOff, secKeySlab, secOut, secIn} {
		if n := len(implicit.Sections[tag-1].Body); n != 0 {
			t.Fatalf("section %d of an unkeyed unit log holds %d bytes", tag, n)
		}
	}
	if v, err := decodeCheckpoint(implicit, ops, Options{}, Float64Codec()); err != nil || len(v.srcID) != 512 {
		t.Fatalf("an unkeyed unit log does not reopen: %v", err)
	}
	meta := slices.Clone(implicit.Sections[secMeta-1].Body)
	le32(meta[8*3:], 511) // the auto-key sequence
	implicit.Sections[secMeta-1].Body = meta
	if _, err := decodeCheckpoint(implicit, ops, Options{}, Float64Codec()); !errors.Is(err, wal.ErrCorrupt) {
		t.Errorf("a generator at 511 behind 512 unstored keys: err = %v, want ErrCorrupt", err)
	}
	// Another algebra's checkpoint is refused, but it is not damage.
	other, _ := semiring.Lookup("min.+")
	if _, err := decodeCheckpoint(ck, other.Ops, Options{}, Float64Codec()); err == nil || errors.Is(err, wal.ErrCorrupt) {
		t.Errorf("checkpoint of +.* opened under min.+: err = %v, want a refusal that is not ErrCorrupt", err)
	}
}

// controlViewOf folds batches into a plain in-memory view and returns it.
func controlViewOf(t testing.TB, batches [][]Edge[float64], ops semiring.Ops[float64]) *View[float64] {
	t.Helper()
	v := NewView(ops, Options{})
	for _, b := range batches {
		if err := v.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// A count the bytes cannot back is refused before anything is allocated
// for it, and a WAL record that does not decode fails recovery as
// corruption.
func TestDecodersBoundAllocationsByLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	codec := Float64Codec()
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// 4 KiB of zeros under a count of 4,000: every edge would decode (flag
	// 0, three empty strings) until the bytes run out a quarter in.
	record := append([]byte{0xa0, 0x1f}, make([]byte, 4096)...)
	if got := allocated(func() {
		if _, err := decodeBatch(record, codec, nil); err == nil {
			t.Error("a record claiming 4,000 edges in 4 KiB decoded")
		}
	}); got > 16<<10 {
		t.Errorf("refusing it allocated %d bytes", got)
	}
	if _, err := decodeBatch(append([]byte{0x80, 0x08}, make([]byte, 4096)...), codec, nil); err != nil {
		t.Errorf("1,024 empty edges in 4 KiB are a valid record: %v", err)
	}

	// End to end: a record whose frame is intact and whose contents are
	// not a batch.
	dir := t.TempDir()
	w, err := wal.NewWriter(dir, 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte{0xa0, 0x1f, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, plusTimes(t), 1, Options{}, DurableOptions[float64]{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("a WAL record that is not a batch: Open err = %v, want ErrCorrupt", err)
	}
}

// Durability reports the checkpoints a shard wrote: how many, and the
// size and duration of the last; Recovery reports the seq and load time
// of the one it opened from.
func TestDurabilityReportsCheckpoints(t *testing.T) {
	ops := plusTimes(t)
	dir := t.TempDir()
	st, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	if d := st.Durability()[0]; d.Checkpoints != 0 || d.CheckpointBytes != 0 {
		t.Fatalf("fresh store: %+v", d)
	}
	for i, b := range durableBatches(46, 4, 6) {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := st.Durability()[0]
	fi, err := os.Stat(filepath.Join(dir, "ckpt-0000000000000004.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Checkpoints != 2 || d.CheckpointBytes != fi.Size() || d.CheckpointDuration <= 0 {
		t.Fatalf("after two checkpoints: %+v (file is %d bytes)", d, fi.Size())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, ops, 1, Options{}, DurableOptions[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovery()[0]; rec.CheckpointLoad <= 0 || rec.CheckpointSeq != 4 {
		t.Fatalf("recovery = %+v", rec)
	}
	if d := re.Durability()[0]; d.Checkpoints != 0 || d.CheckpointSeq != 4 {
		t.Fatalf("reopened store: %+v", d)
	}
	if d := memStore(t, ops, 1, Options{}).Durability()[0]; d.Checkpoints != 0 || d.CheckpointSeq != 0 {
		t.Fatalf("in-memory store: %+v", d)
	}
}
