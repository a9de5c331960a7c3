package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

func eqF(a, b float64) bool { return value.Float64Equal(a, b) }

func mustSnap[V any](t *testing.T, v *View[V]) Snapshot[V] {
	t.Helper()
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// randomEdges draws a multigraph edge list with monotone keys and
// weights drawn from the pair's sample domain (so folds exercise real
// values, including infinities for the tropical pairs).
func randomEdges(r *rand.Rand, n, vertices int, weights []float64) []Edge[float64] {
	edges := make([]Edge[float64], n)
	for i := range edges {
		edges[i] = Weighted(
			fmt.Sprintf("e%06d", i),
			fmt.Sprintf("v%03d", r.Intn(vertices)),
			fmt.Sprintf("v%03d", r.Intn(vertices)),
			weights[r.Intn(len(weights))],
			weights[r.Intn(len(weights))],
		)
	}
	return edges
}

// oneShot builds the batch oracle: incidence arrays over the full edge
// list, then a single Correlate.
func oneShot(t *testing.T, edges []Edge[float64], ops semiring.Ops[float64]) *assoc.Array[float64] {
	t.Helper()
	outT := make([]assoc.Triple[float64], len(edges))
	inT := make([]assoc.Triple[float64], len(edges))
	for i, e := range edges {
		outT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: e.Out}
		inT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: e.In}
	}
	want, err := assoc.Correlate(assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil), ops, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// The central property: Append batches in ANY split produce an array
// Equal to the one-shot Correlate, for every associative registry pair.
func TestIncrementalEqualsBatchAcrossPairsAndSplits(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, ops := range semiring.Figure3Pairs() {
		entry, ok := semiring.Lookup(ops.Name)
		if !ok {
			t.Fatalf("pair %q not registered", ops.Name)
		}
		weights := nonZero(entry.Sample, ops)
		for trial := 0; trial < 4; trial++ {
			edges := randomEdges(r, 60, 12, weights)
			want := oneShot(t, edges, ops)
			v := NewView(ops)
			for lo := 0; lo < len(edges); {
				hi := lo + 1 + r.Intn(17)
				if hi > len(edges) {
					hi = len(edges)
				}
				if err := v.Append(edges[lo:hi]); err != nil {
					t.Fatalf("%s trial %d: append [%d,%d): %v", ops.Name, trial, lo, hi, err)
				}
				lo = hi
			}
			got := mustSnap(t, v).Adjacency
			if !got.Equal(want, eqF) {
				t.Errorf("%s trial %d: incremental != batch", ops.Name, trial)
			}
		}
	}
}

// nonZero filters an algebra's sample down to usable incidence weights
// (Definition I.4 forbids zero entries).
func nonZero(sample []float64, ops semiring.Ops[float64]) []float64 {
	var out []float64
	for _, v := range sample {
		if !ops.IsZero(v) {
			out = append(out, v)
		}
	}
	return out
}

// Bootstrapping from batch-built incidence arrays and appending on top
// equals building everything one-shot.
func TestFromIncidencePlusAppend(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ops := semiring.PlusTimes()
	edges := randomEdges(r, 80, 10, []float64{1, 2, 3})
	split := 60
	outT := make([]assoc.Triple[float64], split)
	inT := make([]assoc.Triple[float64], split)
	for i, e := range edges[:split] {
		outT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: e.Out}
		inT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: e.In}
	}
	v, err := FromIncidence(assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil), ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Append(edges[split:]); err != nil {
		t.Fatal(err)
	}
	if got, want := mustSnap(t, v).Adjacency, oneShot(t, edges, ops); !got.Equal(want, eqF) {
		t.Error("bootstrap + append != batch")
	}
}

// Incremental is batch for a ⊕ that is not associative: a read between
// batches folds the first into main, and the next fold continues main's
// cell instead of grouping the later contributions on their own. Under
// avg.* that grouping gave 1 ⊕ (3⊕5) = 2.5 for the sequential
// ((1⊕3)⊕5) = 3.5; under float64 +.* it gave 0.1 + (0.2+0.3) =
// 0.59999999999999998 for (0.1+0.2)+0.3 = 0.60000000000000009. Every read
// schedule must give the batch construction's bits.
func TestNonAssociativeFoldsAsBatch(t *testing.T) {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range []struct {
		ops  semiring.Ops[float64]
		ws   []float64
		want float64
	}{
		{avgOps(), []float64{1, 3, 5}, 3.5},
		{semiring.PlusTimes(), []float64{0.1, 0.2, 0.3}, 0.60000000000000009},
	} {
		edges := make([]Edge[float64], len(c.ws))
		for i, w := range c.ws {
			edges[i] = Weighted(fmt.Sprintf("k%d", i+1), "a", "b", w, 1)
		}
		want := oneShot(t, edges, c.ops)
		if w, _ := want.At("a", "b"); !bits(w, c.want) {
			t.Fatalf("%s: the batch construction holds %v, want %v", c.ops.Name, w, c.want)
		}
		// Every cut of the stream into batches, with a whole-array read, a
		// point read or nothing after each.
		for cut := 1; cut < len(edges); cut++ {
			for _, read := range []string{"none", "snapshot", "point"} {
				v := NewView(c.ops)
				if err := v.Append(edges[:cut]); err != nil {
					t.Fatal(err)
				}
				switch read {
				case "snapshot":
					mustSnap(t, v)
				case "point":
					if _, err := v.Point(); err != nil {
						t.Fatal(err)
					}
				}
				if err := v.Append(edges[cut:]); err != nil {
					t.Fatal(err)
				}
				pt, err := v.Point()
				if err != nil {
					t.Fatal(err)
				}
				pv, _ := pt.At("a", "b")
				snap := mustSnap(t, v)
				if d := assoc.Diff(snap.Adjacency, want, bits, nil); d != "" || !bits(pv, c.want) {
					t.Errorf("%s, cut at %d, read %s: point read %v, snapshot %s", c.ops.Name, cut, read, pv, d)
				}
			}
		}
	}
}

// Copy-on-write: a snapshot taken before appends must not change as the
// view keeps ingesting — even though the live state reuses backing.
func TestSnapshotIsolation(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(3))
	edges := randomEdges(r, 100, 8, []float64{1, 2})
	v := NewView(ops)
	if err := v.Append(edges[:50]); err != nil {
		t.Fatal(err)
	}
	snap := mustSnap(t, v)
	frozenAdj := snap.Adjacency.Triples()
	eout, _ := mustLogs(t, snap)
	frozenOut := eout.Triples()
	for lo := 50; lo < 100; lo += 10 {
		if err := v.Append(edges[lo : lo+10]); err != nil {
			t.Fatal(err)
		}
	}
	if got := snap.Adjacency.Triples(); !tripleSlicesEqual(frozenAdj, got) {
		t.Error("snapshot adjacency mutated by later appends")
	}
	if got := eout.Triples(); !tripleSlicesEqual(frozenOut, got) {
		t.Error("snapshot incidence mutated by later appends")
	}
	// And the live view moved on.
	if live := mustSnap(t, v); live.Edges != 100 || live.Epoch <= snap.Epoch {
		t.Errorf("live view did not advance: %+v", live)
	}
}

func tripleSlicesEqual(a, b []assoc.Triple[float64]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Concurrent snapshot readers during ingest — the -race target.
func TestConcurrentReadersDuringIngest(t *testing.T) {
	ops := semiring.MaxPlus()
	r := rand.New(rand.NewSource(21))
	edges := randomEdges(r, 400, 20, []float64{0, 1, 3})
	v := NewView(ops)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := v.Snapshot()
				if err != nil {
					panic(err)
				}
				sum := 0.0
				snap.Adjacency.Iterate(func(_, _ string, val float64) { sum += val })
				if eout, _, err := snap.Logs(); err != nil || eout.NNZ() != snap.Edges {
					panic(fmt.Sprint("snapshot log: ", err))
				}
			}
		}()
	}
	for lo := 0; lo < len(edges); lo += 20 {
		if err := v.Append(edges[lo : lo+20]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got, want := mustSnap(t, v).Adjacency, oneShot(t, edges, ops); !got.Equal(want, eqF) {
		t.Error("concurrent ingest diverged from batch")
	}
}

// Key-discipline violations are rejected without corrupting the view.
func TestAppendKeyDiscipline(t *testing.T) {
	ops := semiring.PlusTimes()
	v := NewView(ops)
	if err := v.Append([]Edge[float64]{{Key: "e5", Src: "a", Dst: "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := v.Append([]Edge[float64]{{Key: "e3", Src: "a", Dst: "b"}}); err == nil {
		t.Error("stale key accepted")
	}
	if err := v.Append([]Edge[float64]{
		{Key: "e7", Src: "a", Dst: "b"}, {Key: "e6", Src: "a", Dst: "b"},
	}); err == nil {
		t.Error("unsorted batch accepted")
	}
	if err := v.Append([]Edge[float64]{
		{Key: "e8", Src: "a", Dst: "b"}, {Key: "e8", Src: "c", Dst: "d"},
	}); err == nil {
		t.Error("duplicate key accepted")
	}
	if st := v.Stats(); st.Edges != 1 {
		t.Errorf("rejected batches corrupted the log: %+v", st)
	}
	// Auto-keys and the unweighted default compose.
	auto := NewView(ops)
	if err := auto.Append([]Edge[float64]{{Src: "a", Dst: "b"}, {Src: "b", Dst: "c"}}); err != nil {
		t.Fatal(err)
	}
	if err := auto.Append([]Edge[float64]{{Src: "c", Dst: "a"}}); err != nil {
		t.Fatal(err)
	}
	snap := mustSnap(t, auto)
	if snap.Edges != 3 {
		t.Errorf("auto-keyed edges lost: %+v", snap)
	}
	if val, ok := snap.Adjacency.At("a", "b"); !ok || val != 1 {
		t.Errorf("unweighted default broken: %v %v", val, ok)
	}
}

// A realistic workload: RMAT ingest in batches matches core-style batch
// construction, and Stats stays coherent.
func TestRMATIngestMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := dataset.RMAT(r, 7, 4)
	ops := semiring.PlusTimes()
	eout, ein, err := graph.Incidence(g, ops, graph.Weights[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(ops)
	es := g.Edges()
	for lo := 0; lo < len(es); lo += 97 {
		hi := lo + 97
		if hi > len(es) {
			hi = len(es)
		}
		batch := make([]Edge[float64], hi-lo)
		for i, e := range es[lo:hi] {
			batch[i] = Edge[float64]{Key: e.Key, Src: e.Src, Dst: e.Dst}
		}
		if err := v.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	snap := mustSnap(t, v)
	if !snap.Adjacency.Equal(want, eqF) {
		t.Error("RMAT ingest != batch")
	}
	st := v.Stats()
	if st.Edges != g.NumEdges() || st.AdjNNZ != want.NNZ() {
		t.Errorf("stats incoherent: %+v", st)
	}
}

// Auto-assigned keys must sort after whatever the log already holds —
// including explicit keys from a FromIncidence bootstrap.
func TestAutoKeysAfterBootstrap(t *testing.T) {
	ops := semiring.PlusTimes()
	outT := []assoc.Triple[float64]{{Row: "e00000001", Col: "a", Val: 1}}
	inT := []assoc.Triple[float64]{{Row: "e00000001", Col: "b", Val: 1}}
	v, err := FromIncidence(assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil), ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Append([]Edge[float64]{{Src: "a", Dst: "c"}, {Src: "c", Dst: "b"}}); err != nil {
		t.Fatalf("auto-keyed append after bootstrap: %v", err)
	}
	if err := v.Append([]Edge[float64]{{Src: "b", Dst: "a"}}); err != nil {
		t.Fatalf("second auto-keyed append: %v", err)
	}
	snap := mustSnap(t, v)
	if snap.Edges != 4 {
		t.Fatalf("edges %d, want 4", snap.Edges)
	}
	if got, want := snap.Adjacency, oneShot(t, edgesOf(snap), ops); !got.Equal(want, eqF) {
		t.Error("auto-keyed incremental != batch")
	}
}

// edgesOf reconstructs the Edge list from a snapshot's incidence log
// (each log row has exactly one entry per side).
func edgesOf(s Snapshot[float64]) []Edge[float64] {
	bySide := func(a *assoc.Array[float64]) map[string][2]any {
		m := map[string][2]any{}
		a.Iterate(func(k, v string, val float64) { m[k] = [2]any{v, val} })
		return m
	}
	eout, ein, err := s.Logs()
	if err != nil {
		panic(err)
	}
	outs, ins := bySide(eout), bySide(ein)
	edges := make([]Edge[float64], 0, s.Edges)
	for i := 0; i < eout.RowKeys().Len(); i++ {
		k := eout.RowKeys().Key(i)
		o, n := outs[k], ins[k]
		edges = append(edges, Weighted(k, o[0].(string), n[0].(string), o[1].(float64), n[1].(float64)))
	}
	return edges
}

// A load nobody reads is appends only, and its first read is ONE fold —
// the batch construction over the log so far, bit for bit what
// assoc.Correlate makes of Logs(). Every batch grows the universe on both
// sides; the arms differ in which value columns the log holds when the
// fold reads its suffix. The second read, after one more batch, folds
// onto a main that is not empty, and is still the batch construction.
// (The load is sized past the 4096-entry backlog budget views once had,
// under which its fourth batch folded and its first read merged.)
func TestUnreadAppendsFoldOnce(t *testing.T) {
	const batches, per = 6, 1200
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	arms := []struct {
		name   string
		weight func(batch int, e *Edge[float64])
	}{
		{"unweighted", func(int, *Edge[float64]) {}},
		{"both sides", func(b int, e *Edge[float64]) { e.Out, e.In, e.HasOut, e.HasIn = float64(b+2), 0.5, true, true }},
		{"out only", func(b int, e *Edge[float64]) { e.Out, e.HasOut = float64(b+2), true }},
		{"in only", func(b int, e *Edge[float64]) { e.In, e.HasIn = float64(b+2), true }},
		{"columns appear mid-log", func(b int, e *Edge[float64]) {
			e.HasOut, e.HasIn = b >= 2, b >= 4
			e.Out, e.In = float64(b), 0.25
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			ops := plusTimes(t)
			v := NewView(ops)
			batch := func(b int) []Edge[float64] {
				es := make([]Edge[float64], per)
				for i := range es {
					// Vertices up to the batch's own: each batch brings new ones.
					es[i] = Edge[float64]{Src: fmt.Sprintf("s%03d", r.Intn(40*(b+1))), Dst: fmt.Sprintf("d%03d", r.Intn(40*(b+1)))}
					arm.weight(b, &es[i])
				}
				es[0].Src, es[1].Dst = fmt.Sprintf("s%03d", 40*b+39), fmt.Sprintf("d%03d", 40*b+39)
				return es
			}
			check := func(when string, folds int) {
				t.Helper()
				snap := mustSnap(t, v)
				eout, ein, err := snap.Logs()
				if err != nil {
					t.Fatal(err)
				}
				want, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if d := assoc.Diff(snap.Adjacency, want, bits, nil); d != "" {
					t.Errorf("%s: %s", when, d)
				}
				if st := v.Stats(); st.Folds != folds || st.PendingNNZ != 0 {
					t.Errorf("%s: %d folds, %d pending; want %d, 0", when, st.Folds, st.PendingNNZ, folds)
				}
			}
			for b := 0; b < batches; b++ {
				if err := v.Append(batch(b)); err != nil {
					t.Fatal(err)
				}
			}
			if st := v.Stats(); st.Folds != 0 || st.PendingNNZ != st.Edges || st.Edges != batches*per || st.AdjNNZ != 0 {
				t.Errorf("before any read: %d folds, %d of %d edges pending, %d entries", st.Folds, st.PendingNNZ, st.Edges, st.AdjNNZ)
			}
			check("first read", 1)
			check("clean read", 1)
			if err := v.Append(batch(batches)); err != nil {
				t.Fatal(err)
			}
			check("read after one more batch", 2)
		})
	}
}
