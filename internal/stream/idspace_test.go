package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
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
		v := NewView(semiring.PlusTimes(), Options{})
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
// compactions, budget-triggered folds, batches that fail and roll back —
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
			v := NewView(ops, Options{PendingBudget: 1 + r.Intn(60), CheckAssociative: trial%2 == 0})
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
				lo = hi
				switch r.Intn(4) {
				case 0:
					mustSnap(t, v)
				case 1:
					if err := v.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			got := mustSnap(t, v)
			if !got.Adjacency.Equal(oneShot(t, edges, ops), eqF) {
				t.Errorf("%s trial %d: incremental != one-shot", ops.Name, trial)
			}
			control := NewView(ops, Options{})
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
	v := NewView(ops, Options{})
	control := NewView(ops, Options{})
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

// pr14Batches is the edge stream testdata/pr14 was written from (see
// gen.go there): five keyless batches, a checkpoint after the third.
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

// pr15Step is one append of the stream testdata/pr15 was written from
// (see gen.go there). A rollback step was failed after its endpoints
// were interned, so its vertices stayed behind as ids nothing
// references: the replay skips it.
type pr15Step struct {
	batch    []Edge[float64]
	rollback bool
}

// pr15Steps must stay in step with the copy in testdata/pr15/gen.go.
// shards1 is the explicit-key stream, shards2 the auto-key one; a
// checkpoint followed step 4.
func pr15Steps(keyed bool) []pr15Step {
	verts := []string{"n", "d", "y", "b", "r", "zz", "c", "e", "l", "1", "~", "nn", "orphan-mid-a"}
	var steps []pr15Step
	n, key := 0, 0
	add := func(batch []Edge[float64], rollback bool) {
		if keyed {
			for i := range batch {
				batch[i].Key = fmt.Sprintf("k%04d", key+i)
			}
			if !rollback {
				key += len(batch)
			}
		}
		steps = append(steps, pr15Step{batch, rollback})
	}
	orphans := func(tag string) []Edge[float64] {
		var batch []Edge[float64]
		for i := 0; i < 6; i++ {
			batch = append(batch, Edge[float64]{Src: fmt.Sprintf("orphan-%s-%c", tag, 'a'+i), Dst: fmt.Sprintf("orphan-%s-%c", tag, 'f'-i)})
		}
		return batch
	}
	for b := 0; b < 5; b++ {
		batch := make([]Edge[float64], 7)
		for i := range batch {
			pool := 4 + 2*b
			if b == 3 {
				pool = len(verts)
			}
			src := verts[(n*5+b)%pool]
			dst := verts[(n*7+3)%(3+2*b)]
			batch[i] = Edge[float64]{Src: src, Dst: dst, Out: float64(1 + n%3), HasOut: true}
			if n%4 == 0 {
				batch[i].In, batch[i].HasIn = 0.25, true
			}
			n++
		}
		add(batch, false)
		switch b {
		case 0:
			add(orphans("mid"), true)
		case 2:
			add(orphans("tail"), true)
		}
	}
	return steps
}

// lastKey is the newest edge key in a store's log.
func lastKey(t *testing.T, st *Store[float64]) string {
	t.Helper()
	eout, _ := mustLogs(t, flatSnap(t, st))
	return eout.RowKeys().Key(eout.RowKeys().Len() - 1)
}

// Format 1 is read, never written. testdata/pr14 and testdata/pr15 hold
// directories earlier commits wrote — a format-1 checkpoint covering
// three batches plus a WAL tail of two more, at one and at two shards:
// pr14 from a position-space log, keyless; pr15 from the id-space log,
// with ids orphaned by rolled-back batches (−1 inside the position map
// and padded onto its end), explicit keys at one shard and auto keys at
// two. Each must reopen bit-identical to an in-memory replay of its
// stream, take keyless appends whose vertices sort all over the
// recovered universe, equal the dense Definition I.3 construction over
// everything ingested, checkpoint — format 2 now — and reopen again the
// same, down to the next auto-assigned key.
func TestReopensParentWrittenCheckpoints(t *testing.T) {
	ops := semiring.PlusTimes()
	more := [][]Edge[float64]{
		{{Src: "!", Dst: "m"}, {Src: "m", Dst: "l"}, {Src: "zzz", Dst: "!"}},
		{{Src: "c", Dst: "zzz", Out: 2, HasOut: true}, {Src: "l", Dst: "a"}, {Src: "orphan-tail-a", Dst: "n"}},
	}
	pr15 := func(keyed bool) (batches [][]Edge[float64]) {
		for _, step := range pr15Steps(keyed) {
			if !step.rollback {
				batches = append(batches, step.batch)
			}
		}
		return batches
	}
	for _, fx := range []struct {
		dir     string
		shards  int
		batches [][]Edge[float64]
	}{
		{"pr14/shards1", 1, pr14Batches()},
		{"pr14/shards2", 2, pr14Batches()},
		{"pr15/shards1", 1, pr15(true)},
		{"pr15/shards2", 2, pr15(false)},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", fx.dir))); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, ops, fx.shards, Options{}, DurableOptions[float64]{})
		if err != nil {
			t.Fatalf("%s: reopening a parent-written directory: %v", fx.dir, err)
		}
		for i, rec := range st.Recovery() {
			if rec.CheckpointSeq != 3 || rec.CheckpointFormat != 1 || rec.Replayed == 0 || rec.SkippedCheckpoints != 0 {
				t.Errorf("%s: shard %d recovered %+v, want format-1 checkpoint 3 + a replayed tail", fx.dir, i, rec)
			}
		}
		replay := memStore(t, ops, fx.shards, Options{})
		all := slices.Clone(fx.batches)
		for _, batch := range all {
			if err := replay.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		// same holds the store to the in-memory replay: snapshot, logs,
		// counters, and the key the next keyless edge is given.
		same := func(st *Store[float64], label string) {
			t.Helper()
			snapEqual(t, flatSnap(t, st), flatSnap(t, replay), fx.dir+", "+label)
			got, want := st.Stats(), replay.Stats()
			if got.Edges != want.Edges || !slices.Equal(got.Epochs, want.Epochs) || got.AdjNNZ != want.AdjNNZ || got.Pending != want.Pending {
				t.Errorf("%s, %s: stats %+v, the replay's %+v", fx.dir, label, got, want)
			}
			for i := range got.PerShard {
				g, w := got.PerShard[i], want.PerShard[i]
				if g.OutVertices != w.OutVertices || g.InVertices != w.InVertices || g.Appends != w.Appends {
					t.Errorf("%s, %s: shard %d stats %+v, the replay's %+v", fx.dir, label, i, g, w)
				}
			}
		}
		same(st, "as recovered")
		for _, batch := range more {
			if err := st.Append(batch); err != nil {
				t.Fatalf("%s: keyless append on a parent-written directory: %v", fx.dir, err)
			}
			if err := replay.Append(batch); err != nil {
				t.Fatal(err)
			}
			all = append(all, batch)
			if got, want := lastKey(t, st), lastKey(t, replay); got != want {
				t.Fatalf("%s: a keyless edge was keyed %q, in the replay %q", fx.dir, got, want)
			}
		}
		same(st, "after keyless appends")

		// The oracle shares nothing with the view: its own keys in
		// arrival order, FromTriples, the dense fold.
		var outT, inT []assoc.Triple[float64]
		for _, batch := range all {
			for _, e := range batch {
				k := fmt.Sprintf("k%04d", len(outT))
				ov, iv := 1.0, 1.0
				if e.HasOut {
					ov = e.Out
				}
				if e.HasIn {
					iv = e.In
				}
				outT = append(outT, assoc.Triple[float64]{Row: k, Col: e.Src, Val: ov})
				inT = append(inT, assoc.Triple[float64]{Row: k, Col: e.Dst, Val: iv})
			}
		}
		want, err := graph.AdjacencyDense(assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil), ops)
		if err != nil {
			t.Fatal(err)
		}
		got := flatSnap(t, st)
		if got.Edges != len(outT) || !got.Adjacency.Equal(want, eqF) {
			t.Errorf("%s: recovered + appended adjacency (%d edges) != dense oracle (%d edges)", fx.dir, got.Edges, len(outT))
		}
		// And the recovered log is a log: its own one-shot product is the
		// same array.
		eout, ein := mustLogs(t, got)
		if again, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{}); err != nil || !again.Equal(want, eqF) {
			t.Errorf("%s: Correlate over the recovered Logs() != dense oracle (%v)", fx.dir, err)
		}
		// A checkpoint written now is format 2, and reopens the same.
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, ops, fx.shards, Options{}, DurableOptions[float64]{})
		if err != nil {
			t.Fatalf("%s: reopening after a new checkpoint: %v", fx.dir, err)
		}
		for i, rec := range re.Recovery() {
			if rec.CheckpointFormat != 2 || rec.Replayed != 0 {
				t.Errorf("%s: shard %d reopened from %+v, want a format-2 checkpoint and no tail", fx.dir, i, rec)
			}
		}
		same(re, "after a format-2 checkpoint")
		final := []Edge[float64]{{Src: "after", Dst: "all"}, {Src: "a", Dst: "after"}}
		if err := re.Append(final); err != nil {
			t.Fatal(err)
		}
		if err := replay.Append(final); err != nil {
			t.Fatal(err)
		}
		if got, want := lastKey(t, re), lastKey(t, replay); got != want {
			t.Errorf("%s: after the format-2 checkpoint a keyless edge was keyed %q, in the replay %q", fx.dir, got, want)
		}
		same(re, "one batch past the format-2 checkpoint")
		if err := re.Close(); err != nil {
			t.Fatal(err)
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
// — to an in-memory replay of its stream; the unkeyed, unweighted ones
// open COMPACT (the keys they spell are the generator's run, the values
// all One: neither column is kept), the keyed, weighted ones as the
// columns they are; and a checkpoint written now — the compact ones
// without those sections' bodies — reopens the same again.
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
		replay := memStore(t, ops, fx.shards, Options{})
		for _, batch := range pr20Batches(fx.keyed) {
			if err := replay.Append(batch); err != nil {
				t.Fatal(err)
			}
		}
		for round, label := range []string{"as PR 20 wrote it", "after a checkpoint of its own"} {
			st, err := Open(dir, ops, fx.shards, Options{}, DurableOptions[float64]{})
			if err != nil {
				t.Fatalf("%s, %s: %v", fx.dir, label, err)
			}
			for i, rec := range st.Recovery() {
				if rec.CheckpointFormat != 2 || rec.SkippedCheckpoints != 0 || (rec.Replayed > 0) != (round == 0) {
					t.Errorf("%s, %s: shard %d recovered %+v, want a format-2 checkpoint, with a WAL tail the first time only", fx.dir, label, i, rec)
				}
			}
			snapEqual(t, flatSnap(t, st), flatSnap(t, replay), fx.dir+", "+label)
			for i, p := range st.parts {
				v := p.v
				if compact := len(v.keys.spelled) == 0 && v.out == nil && v.in == nil; compact == fx.keyed {
					t.Errorf("%s, %s: shard %d holds %d runs, %d spelled keys, %d and %d values for %d edges", fx.dir, label, i,
						len(v.keys.runs), len(v.keys.spelled), len(v.out), len(v.in), len(v.srcID))
				}
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
