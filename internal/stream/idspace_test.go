package stream

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"adjarray/internal/semiring"
	"adjarray/internal/wal"
)

// The log and the backlog are stored by interner id, so what an Append
// costs must not depend on how much the view already holds — not even
// when the batch introduces vertices, the case that used to rewrite the
// whole log. Two views over the same 1,000 vertices, one with 10k and
// one with 300k logged edges, take the same vertex-introducing batches;
// the typical (median) append must allocate the same on both.
func TestAppendCostIndependentOfLogSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const per = 256
	typical := func(logged int) (bytes, allocs uint64) {
		v := NewView(semiring.PlusTimes())
		r := rand.New(rand.NewSource(7))
		batch := make([]Edge[float64], per)
		for n := 0; n < logged; n += per {
			for i := range batch {
				batch[i] = Edge[float64]{Src: fmt.Sprintf("v%03d", r.Intn(1000)), Dst: fmt.Sprintf("v%03d", r.Intn(1000))}
			}
			if err := v.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := v.Snapshot(); err != nil {
			t.Fatal(err)
		}
		// Every measured edge names two vertices the view has never seen,
		// with keys that sort before, between and after the known ones.
		const rounds = 15
		batches := make([][]Edge[float64], rounds)
		for b := range batches {
			batches[b] = make([]Edge[float64], per)
			for i := range batches[b] {
				batches[b][i] = Edge[float64]{
					Src: fmt.Sprintf("%c-new-%d-%d", "!v~"[i%3], b, i),
					Dst: fmt.Sprintf("%c-new-%d-%d", "~v!"[i%3], b, i),
				}
			}
		}
		var bs, as []uint64
		var before, after runtime.MemStats
		for _, batch := range batches {
			runtime.ReadMemStats(&before)
			if err := v.Append(batch); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bs = append(bs, after.TotalAlloc-before.TotalAlloc)
			as = append(as, after.Mallocs-before.Mallocs)
		}
		slices.Sort(bs)
		slices.Sort(as)
		return bs[rounds/2], as[rounds/2]
	}
	smallB, smallA := typical(10_000)
	largeB, largeA := typical(300_000)
	t.Logf("median per append: %d B / %d allocs at 10k edges, %d B / %d allocs at 300k", smallB, smallA, largeB, largeA)
	within := func(a, b uint64) bool { return 10*a <= 11*b && 10*b <= 11*a }
	if !within(smallB, largeB) || !within(smallA, largeA) {
		t.Errorf("append cost grows with the log: %d B / %d allocs at 10k edges, %d B / %d allocs at 300k",
			smallB, smallA, largeB, largeA)
	}
}

// scatteredVertices returns vertex keys in an arrival order that makes
// later keys sort before, between and after earlier ones.
func scatteredVertices(r *rand.Rand, n int) []string {
	vs := make([]string, n)
	for i := range vs {
		vs[i] = fmt.Sprintf("%c%02d", "!Mm~"[i%4], i)
	}
	r.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// The differential property of the id-space view: however the edge
// stream is cut into batches, wherever the vertices a batch introduces
// sort on either side, and whatever happens in between — snapshots,
// point reads, budget-triggered folds, batches that fail and roll back —
// the adjacency equals the one-shot construction, and Logs() equals the
// incidence arrays of a control view that took the whole stream as one
// batch. Every registry pair of Figure 3.
func TestGrowingUniverseMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	boom := errors.New("injected failure")
	sites := []string{"append:interned", "append:logged", "commit:counted"}
	for _, ops := range semiring.Figure3Pairs() {
		entry, ok := semiring.Lookup(ops.Name)
		if !ok {
			t.Fatalf("pair %q not registered", ops.Name)
		}
		weights := nonZero(entry.Sample, ops)
		for trial := 0; trial < 4; trial++ {
			verts := scatteredVertices(r, 40)
			edges := make([]Edge[float64], 150)
			for i := range edges {
				reach := 3 + i/4 // the reachable vertex set grows as the stream goes on
				edges[i] = Weighted(fmt.Sprintf("e%06d", i),
					verts[r.Intn(reach)], verts[r.Intn(reach)],
					weights[r.Intn(len(weights))], weights[r.Intn(len(weights))])
			}
			budget := 1 + r.Intn(60) // an unfolded suffix that reaches it folds
			v := NewView(ops)
			for lo := 0; lo < len(edges); {
				hi := min(lo+1+r.Intn(17), len(edges))
				if r.Intn(3) == 0 {
					// A batch that dies inside Append, naming vertices no
					// accepted edge ever will: their ids stay orphaned.
					site := sites[r.Intn(len(sites))]
					v.failpoint = func(s string) error {
						if s == site {
							return boom
						}
						return nil
					}
					poison := slices.Clone(edges[lo:hi])
					poison[0].Src, poison[len(poison)-1].Dst = fmt.Sprintf(" orphan%d", lo), fmt.Sprintf("~orphan%d", lo)
					if err := v.Append(poison); !errors.Is(err, boom) {
						t.Fatalf("%s trial %d: poisoned append [%d,%d) = %v", ops.Name, trial, lo, hi, err)
					}
					v.failpoint = nil
				}
				if err := v.Append(edges[lo:hi]); err != nil {
					t.Fatalf("%s trial %d: append [%d,%d): %v", ops.Name, trial, lo, hi, err)
				}
				if v.Stats().PendingNNZ >= budget {
					mustSnap(t, v)
				}
				lo = hi
				switch r.Intn(4) {
				case 0:
					mustSnap(t, v)
				case 1:
					if _, err := v.Point(); err != nil {
						t.Fatal(err)
					}
				}
			}
			got := mustSnap(t, v)
			if !got.Adjacency.Equal(oneShot(t, edges, ops), eqF) {
				t.Errorf("%s trial %d: incremental != one-shot", ops.Name, trial)
			}
			control := NewView(ops)
			if err := control.Append(edges); err != nil {
				t.Fatal(err)
			}
			gotOut, gotIn := mustLogs(t, got)
			wantOut, wantIn := mustLogs(t, mustSnap(t, control))
			if !gotOut.Equal(wantOut, eqF) || !gotIn.Equal(wantIn, eqF) {
				t.Errorf("%s trial %d: Logs() differ from the un-split control's", ops.Name, trial)
			}
		}
	}
}

// A Snapshot's Logs() are the arrays of ITS epoch even when they are
// first asked for after the view has moved on — more edges, and a
// universe grown on both sides of every key the snapshot knows. Run
// under -race: the build reads the captured log prefix while appends
// extend the same slices.
func TestOldSnapshotLogsKeepTheirEpoch(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(4))
	verts := scatteredVertices(r, 60)
	edges := make([]Edge[float64], 400)
	for i := range edges {
		reach := 5 + i/8
		edges[i] = Weighted(fmt.Sprintf("e%06d", i), verts[r.Intn(reach)], verts[r.Intn(reach)], 1, float64(1+i%3))
	}
	v := NewView(ops)
	control := NewView(ops)
	for _, w := range []*View[float64]{v, control} {
		if err := w.Append(edges[:40]); err != nil {
			t.Fatal(err)
		}
	}
	old := mustSnap(t, v) // Logs not asked for yet
	wantOut, wantIn := mustLogs(t, mustSnap(t, control))

	// Half of the growth happens before the arrays are asked for, the
	// other half while they are being built.
	grow := func(from, to int) error {
		for lo := from; lo < to; lo += 20 {
			if err := v.Append(edges[lo : lo+20]); err != nil {
				return err
			}
			if _, err := v.Snapshot(); err != nil { // sync the grown universe
				return err
			}
		}
		return nil
	}
	if err := grow(40, 200); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := grow(200, len(edges)); err != nil {
			t.Error(err)
		}
	}()
	gotOut, gotIn := mustLogs(t, old)
	wg.Wait()
	if !gotOut.Equal(wantOut, eqF) || !gotIn.Equal(wantIn, eqF) {
		t.Fatal("an old snapshot's Logs() are not the arrays of its own epoch")
	}
	if now, _ := mustLogs(t, mustSnap(t, v)); now.RowKeys().Len() != len(edges) || now.ColKeys().Len() <= gotOut.ColKeys().Len() {
		t.Fatalf("the live view did not move on: %d rows over %d sources", now.RowKeys().Len(), now.ColKeys().Len())
	}
	// Asking again, after the fact, returns the same arrays.
	if again, _ := mustLogs(t, old); again != gotOut {
		t.Error("Logs() rebuilt its arrays")
	}
}

// pr14Batches is the keyless, weighted edge stream PR 14's format-1
// fixture was written from. The fixture went with format 1; the stream
// stays as the one the fuzz targets seed from.
func pr14Batches() [][]Edge[float64] {
	verts := []string{"m", "c", "x", "a", "q", "zz", "b", "d", "k", "0", "~", "mm"}
	var out [][]Edge[float64]
	n := 0
	for b := 0; b < 5; b++ {
		batch := make([]Edge[float64], 6)
		for i := range batch {
			src := verts[(n*5+b)%(4+2*b)]
			dst := verts[(n*7+3)%(3+2*b)]
			batch[i] = Edge[float64]{Src: src, Dst: dst, Out: float64(1 + n%3), HasOut: true}
			if n%4 == 0 {
				batch[i].In, batch[i].HasIn = 0.5, true
			}
			n++
		}
		out = append(out, batch)
	}
	return out
}

// dirBytes reads every file under dir, by path relative to it.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		buf, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// Format 1 is refused, not read. testdata/pr15 holds directories PR 15 —
// the last commit to write format 1 — wrote: a format-1 checkpoint
// covering three batches plus a WAL tail of two more, at one and at two
// shards. Open hands back no store and an error that matches
// wal.ErrCorrupt and names the checkpoint file, the shard, the format and
// the build that still reads it — never a store opened empty or from the
// WAL tail alone — and leaves the directory as it found it: no new
// segment, nothing reaped, truncated or retired.
func TestFormatOneDirectoriesAreRefused(t *testing.T) {
	ops := semiring.PlusTimes()
	for _, fx := range []struct {
		dir, ckpt string
		names     []string
		shards    []int // the counts the layout admits, -1 adopting it
	}{
		{"shards1", "ckpt-0000000000000003.ckpt", nil, []int{1, 0, -1}},
		{"shards2", filepath.Join("shard-000", "ckpt-0000000000000003.ckpt"), []string{"shard 0"}, []int{2, -1}},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "pr15", fx.dir))); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		for _, shards := range fx.shards {
			st, err := Open(dir, ops, shards, DurableOptions{})
			if st != nil {
				t.Fatalf("%s opened with %d shards asked: %d edges", fx.dir, shards, st.Stats().Edges)
			}
			var ce *wal.CorruptError
			if !errors.Is(err, wal.ErrCorrupt) || !errors.As(err, &ce) || ce.Path != filepath.Join(dir, fx.ckpt) || ce.Offset != 8 {
				t.Fatalf("%s, %d shards asked: err = %v, want a *wal.CorruptError at the version word of %s", fx.dir, shards, err, fx.ckpt)
			}
			for _, want := range append([]string{fx.ckpt, "format 1", "b3cab25", "checkpoint"}, fx.names...) {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s, %d shards asked: the refusal does not say %q: %v", fx.dir, shards, want, err)
				}
			}
			if after := dirBytes(t, dir); !maps.Equal(after, before) {
				t.Fatalf("%s, %d shards asked: the refused open changed the directory: %d files before, %d after", fx.dir, shards, len(before), len(after))
			}
		}
	}
}

// pr20Batches is the edge stream testdata/pr20 was written from (see
// gen.go there, which holds the copy this must stay in step with): five
// batches, a checkpoint after the third — unkeyed and unweighted, or
// under given keys with both weights.
func pr20Batches(keyed bool) [][]Edge[float64] {
	verts := []string{"p", "f", "w", "a", "t", "zz", "c", "g", "j", "2", "~", "pp"}
	var out [][]Edge[float64]
	n := 0
	for b := 0; b < 5; b++ {
		batch := make([]Edge[float64], 6)
		for i := range batch {
			batch[i] = Edge[float64]{Src: verts[(n*5+b)%(4+2*b)], Dst: verts[(n*7+3)%(3+2*b)]}
			if keyed {
				batch[i].Key = fmt.Sprintf("k%04d", n)
				batch[i].Out, batch[i].HasOut = float64(1+n%3), true
				batch[i].In, batch[i].HasIn = 0.5, n%4 == 0
			}
			n++
		}
		out = append(out, batch)
	}
	return out
}

// testdata/pr20 holds directories PR 20 wrote: format-2 checkpoints that
// spell out every edge key and both values of every edge, generated and
// unit or not, plus a WAL tail. Each reopens equal — Logs() and adjacency
// — to an in-memory replay of its stream, its columns read as the
// columns they are; and a checkpoint written now reopens the same again.
func TestReopensSpelledOutFormat2(t *testing.T) {
	ops := semiring.PlusTimes()
	for _, fx := range []struct {
		dir    string
		shards int
		keyed  bool
	}{{"auto1", 1, false}, {"auto2", 2, false}, {"keyed1", 1, true}, {"keyed2", 2, true}} {
		dir := filepath.Join(t.TempDir(), "store")
		if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "pr20", fx.dir))); err != nil {
			t.Fatal(err)
		}
		replay := memStore(t, ops, fx.shards)
		for _, batch := range pr20Batches(fx.keyed) {
			if err := replay.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		for round, label := range []string{"as PR 20 wrote it", "after a checkpoint of its own"} {
			st, err := Open(dir, ops, fx.shards, DurableOptions{})
			if err != nil {
				t.Fatalf("%s, %s: %v", fx.dir, label, err)
			}
			for i, rec := range st.Recovery() {
				if rec.CheckpointSeq == 0 || rec.SkippedCheckpoints != 0 || (rec.Replayed > 0) != (round == 0) {
					t.Errorf("%s, %s: shard %d recovered %+v, want a checkpoint, with a WAL tail the first time only", fx.dir, label, i, rec)
				}
			}
			snapEqual(t, flatSnap(t, st), flatSnap(t, replay), fx.dir+", "+label)
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
