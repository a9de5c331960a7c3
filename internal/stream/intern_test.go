package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// adversarialVertices stresses the interner's byte-oriented hash
// through vertex-introducing appends: unicode, embedded NUL, 0xff, empty
// string, and long shared prefixes.
var adversarialVertices = []string{
	"", "\x00", "\xff", "a\x00b", "κόμβος", "🔑", "v", "v1", "v10",
	"prefix-aaaaaaaaaaaaaaaa", "prefix-aaaaaaaaaaaaaaab",
}

// TestInternedSlowPathMatchesBatch grows the universe with every batch
// (each one interns vertices the view has not seen — what was once a
// separate slow path) and checks the incremental adjacency against a
// one-shot batch construction.
func TestInternedSlowPathMatchesBatch(t *testing.T) {
	ops := semiring.PlusTimes()
	v := NewView(ops)
	var all []Edge[float64]
	seq := 0
	addBatch := func(es ...Edge[float64]) {
		t.Helper()
		if err := v.Append(es); err != nil {
			t.Fatal(err)
		}
		all = append(all, es...)
	}
	// Round 1: adversarial vertices, pairwise.
	var batch []Edge[float64]
	for i := 0; i+1 < len(adversarialVertices); i++ {
		batch = append(batch, Weighted(fmt.Sprintf("e%06d", seq),
			adversarialVertices[i], adversarialVertices[i+1], float64(i+1), 2))
		seq++
	}
	addBatch(batch...)
	// Round 2: revisit known vertices interleaved with new.
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		var b []Edge[float64]
		for i := 0; i < 7; i++ {
			src := adversarialVertices[r.Intn(len(adversarialVertices))]
			dst := fmt.Sprintf("new-%d-%d", round, i)
			if i%2 == 0 {
				src, dst = dst, src
			}
			b = append(b, Weighted(fmt.Sprintf("e%06d", seq), src, dst, 1, float64(i+1)))
			seq++
		}
		addBatch(b...)
	}
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// One-shot oracle from the log itself.
	eout, ein := mustLogs(t, snap)
	oracle, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := assoc.Diff(oracle, snap.Adjacency, value.Float64Equal, value.FormatFloat); diff != "" {
		t.Fatalf("interned incremental state diverges from batch: %s", diff)
	}
	// The universe sets must be interner-bound and resolve every vertex.
	for _, set := range []interface {
		Interned() bool
		Len() int
		Key(int) string
		Index(string) (int, bool)
	}{eout.ColKeys(), ein.ColKeys()} {
		if !set.Interned() {
			t.Fatal("universe key set not interner-bound")
		}
		for i := 0; i < set.Len(); i++ {
			if p, ok := set.Index(set.Key(i)); !ok || p != i {
				t.Fatalf("bound universe Index(%q) = %d,%v want %d", set.Key(i), p, ok, i)
			}
		}
	}
}

// TestScratchPoolAliasing is the pooled-buffer leak check: concurrent
// parallel constructions (hammering the sync.Pool kernel scratch) race
// against a view's Append/Snapshot cycle, which at every fifth snapshot
// rebuilds its own adjacency from the snapshot's log across two spans —
// the same pools again — under -race in CI. Every parallel result is
// differentially checked against a serial reference computed AFTER the
// concurrency, so any cross-call buffer reuse that leaked state into a
// result is caught as a value difference.
func TestScratchPoolAliasing(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(21))
	g := dataset.RMAT(r, 8, 8)
	es := g.Edges()

	// A static pair for the concurrent Muls.
	var outT, inT []assoc.Triple[float64]
	for _, e := range es[:2000] {
		outT = append(outT, assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: 1})
		inT = append(inT, assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: 2})
	}
	eout := assoc.FromTriples(outT, nil)
	ein := assoc.FromTriples(inT, nil)

	view := NewView(ops)
	// What the view's goroutine built in parallel from each snapshot's log.
	type rebuilt struct {
		snap Snapshot[float64]
		adj  *assoc.Array[float64]
	}
	var rebuilds []rebuilt

	var wg sync.WaitGroup
	results := make([]*assoc.Array[float64], 8)
	for m := 0; m < 8; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			a, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{Workers: 3, FlopFloor: -1})
			if err != nil {
				t.Error(err)
				return
			}
			results[m] = a
		}(m)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := 0
		for round := 0; round < 30; round++ {
			batch := make([]Edge[float64], 100)
			for i := range batch {
				e := es[(seq+i)%len(es)]
				batch[i] = Weighted(fmt.Sprintf("s%07d", seq+i), e.Src, e.Dst, 1.0, 1)
			}
			seq += len(batch)
			if err := view.Append(batch); err != nil {
				t.Error(err)
				return
			}
			if view.Stats().PendingNNZ >= 256 {
				if _, err := view.Snapshot(); err != nil {
					t.Error(err)
					return
				}
			}
			if round%5 == 1 {
				snap, err := view.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				logOut, logIn, err := snap.Logs()
				if err != nil {
					t.Error(err)
					return
				}
				adj, err := assoc.Correlate(logOut, logIn, ops, assoc.MulOptions{Workers: 2, FlopFloor: -1})
				if err != nil {
					t.Error(err)
					return
				}
				rebuilds = append(rebuilds, rebuilt{snap, adj})
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// Serial reference, computed after all pooled activity.
	want, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for m, got := range results {
		if diff := assoc.Diff(want, got, value.Float64Equal, value.FormatFloat); diff != "" {
			t.Fatalf("concurrent Mul %d corrupted by pooled scratch: %s", m, diff)
		}
	}
	// So must every parallel rebuild, and the state it was rebuilt beside.
	for i, rb := range rebuilds {
		logOut, logIn := mustLogs(t, rb.snap)
		serial, err := assoc.Correlate(logOut, logIn, ops, assoc.MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if diff := assoc.Diff(serial, rb.adj, value.Float64Equal, value.FormatFloat); diff != "" {
			t.Fatalf("parallel rebuild %d corrupted by pooled scratch: %s", i, diff)
		}
		if diff := assoc.Diff(serial, rb.snap.Adjacency, value.Float64Equal, value.FormatFloat); diff != "" {
			t.Fatalf("view state at rebuild %d corrupted by pooled scratch: %s", i, diff)
		}
	}
	// The view's state must equal its own one-shot rebuild.
	snap, err := view.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	logOut, logIn := mustLogs(t, snap)
	oracle, err := assoc.Correlate(logOut, logIn, ops, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := assoc.Diff(oracle, snap.Adjacency, value.Float64Equal, value.FormatFloat); diff != "" {
		t.Fatalf("view state corrupted by pooled scratch: %s", diff)
	}
}

// Every key of a view's vertex universe lies in its interner's live slab:
// each sync rebinds the grown universe to it, so no Set the view keeps
// pins a slab array that interning has since moved away from — over a
// growing vertex space, those arrays together are as large as the live
// one. Appends and folds alternate until each slab has moved five times.
func TestUniverseKeysViewTheLiveSlab(t *testing.T) {
	v := NewView(plusTimes(t))
	slab := func(in *keys.Interner) []byte {
		_, s := in.Prefix(in.Len())
		return s
	}
	moves := func(in *keys.Interner, last **byte, n *int) {
		if p := unsafe.SliceData(slab(in)); p != *last {
			*last, *n = p, *n+1
		}
	}
	var srcAt, dstAt *byte
	srcMoves, dstMoves := 0, 0
	for b := 0; srcMoves < 6 || dstMoves < 6; b++ {
		batch := make([]Edge[float64], 64)
		for i := range batch {
			batch[i] = Edge[float64]{Src: fmt.Sprintf("s%06d", b*64+i), Dst: fmt.Sprintf("d%06d", (b*64+i)*7)}
		}
		if err := v.Append(batch); err != nil {
			t.Fatal(err)
		}
		if b%3 == 0 {
			if _, err := v.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		moves(v.srcIn, &srcAt, &srcMoves)
		moves(v.dstIn, &dstAt, &dstMoves)
	}
	if _, err := v.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name string
		set  *keys.Set
		in   *keys.Interner
	}{{"row", v.uRows, v.srcIn}, {"column", v.uCols, v.dstIn}} {
		live := slab(side.in)
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(live)))
		for i := 0; i < side.set.Len(); i++ {
			k := side.set.Key(i)
			if p := uintptr(unsafe.Pointer(unsafe.StringData(k))); p < lo || p+uintptr(len(k)) > lo+uintptr(len(live)) {
				t.Fatalf("%s key %d (%q) lies outside the interner's live slab of %d bytes: the universe pins a slab array interning moved away from",
					side.name, i, k, len(live))
			}
		}
	}
}

// A fold reads main as its matrix alone once the universe is synced: the
// key sets main spanned — the universe the sync replaced, and the slab
// array its keys view — are garbage from there, not held beside the array
// the merge builds. A merge that fails there still leaves main spanning
// the grown universe, and the next fold is the batch construction.
func TestFoldReleasesTheReplacedUniverse(t *testing.T) {
	ops := plusTimes(t)
	batch := func(b int) []Edge[float64] {
		es := make([]Edge[float64], 32)
		for i := range es {
			es[i] = Weighted("", fmt.Sprintf("s%04d", b*32+i), fmt.Sprintf("d%04d", (b*32+i)%50), float64(1+i%3), 1)
		}
		return es
	}
	v := NewView(ops)
	var all [][]Edge[float64]
	for b := 0; b < 3; b++ {
		all = append(all, batch(b))
		if err := v.Append(all[b]); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	all = append(all, batch(3))
	if err := v.Append(all[3]); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	runtime.SetFinalizer(v.uRows, func(*keys.Set) { close(released) })
	boom := errors.New("merge refused")
	v.failpoint = func(site string) error {
		if site != "fold:merge" {
			return nil
		}
		runtime.GC()
		select {
		case <-released:
		case <-time.After(10 * time.Second):
			t.Error("the universe the sync replaced is still reachable when the merge starts")
		}
		return boom
	}
	if _, err := v.Snapshot(); !errors.Is(err, boom) {
		t.Fatalf("fold: err = %v, want the refused merge", err)
	}
	v.failpoint = nil
	if v.main.RowKeys() != v.uRows || v.main.ColKeys() != v.uCols {
		t.Fatal("after a failed merge main does not span the synced universe")
	}
	got, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, got, controlView(t, all, len(all), ops), "after a failed merge")
}
