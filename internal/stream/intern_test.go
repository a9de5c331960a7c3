package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
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
	v := NewView(ops, Options{})
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
// against a view's Append/Snapshot/Compact cycle, which at every snapshot
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

	view := NewView(ops, Options{PendingBudget: 256})
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
			if round%11 == 7 {
				if err := view.Compact(); err != nil {
					t.Error(err)
					return
				}
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
