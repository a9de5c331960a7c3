package stream

import (
	"fmt"
	"sync"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// avgOps is the canonical non-associative ⊕ used across the stream
// tests: (a+b)/2 is not associative, and 0 is no ⊕-identity either, so
// a cell whose edges fold to exactly 0 is the one place a view may part
// from the batch construction (see the package comment); no test stream
// here folds a cell to 0.
func avgOps() semiring.Ops[float64] {
	return semiring.Ops[float64]{
		Name: "avg.*",
		Add:  func(a, b float64) float64 { return (a + b) / 2 },
		Mul:  func(a, b float64) float64 { return a * b },
		Zero: 0, One: 1,
		Equal: value.Float64Equal,
	}
}

// Snapshot isolation under concurrent Append, Snapshot and Point — run
// under -race. Snapshots captured mid-ingest are deep-frozen (their
// triples must not change no matter how much the view advances, and
// point pins keep main shared while folds run), and the final state
// equals the one-shot batch construction.
func TestSnapshotIsolationUnderConcurrentAppend(t *testing.T) {
	ops := semiring.PlusTimes()
	const edges, batch = 600, 20
	all := make([]Edge[float64], edges)
	for i := range all {
		all[i] = Weighted(
			fmt.Sprintf("e%06d", i),
			fmt.Sprintf("v%02d", (i*7)%16),
			fmt.Sprintf("v%02d", (i*13)%16),
			1, float64(1+i%3),
		)
	}
	v := NewView(ops)

	type frozen struct {
		epoch   int
		triples []assoc.Triple[float64]
		snap    Snapshot[float64]
	}
	var mu sync.Mutex
	var captured []frozen

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
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
				mu.Lock()
				if len(captured) < 64 {
					captured = append(captured, frozen{
						epoch:   snap.Epoch,
						triples: snap.Adjacency.Triples(),
						snap:    snap,
					})
				}
				mu.Unlock()
			}
		}()
	}
	// A point reader races the whole-array readers and the writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pt, err := v.Point()
			if err != nil {
				panic(err)
			}
			pt.Row("v00", func(string, float64) {})
		}
	}()
	for lo := 0; lo < edges; lo += batch {
		if err := v.Append(all[lo : lo+batch]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Every captured snapshot must still render exactly what it did at
	// capture time.
	for i, f := range captured {
		now := f.snap.Adjacency.Triples()
		if len(now) != len(f.triples) {
			t.Fatalf("snapshot %d (epoch %d) changed size: %d -> %d", i, f.epoch, len(f.triples), len(now))
		}
		for j := range now {
			if now[j] != f.triples[j] {
				t.Fatalf("snapshot %d (epoch %d) mutated at %d: %+v -> %+v", i, f.epoch, j, f.triples[j], now[j])
			}
		}
	}

	// And the live view equals the one-shot construction.
	outT := make([]assoc.Triple[float64], edges)
	inT := make([]assoc.Triple[float64], edges)
	for i, e := range all {
		outT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Src, Val: e.Out}
		inT[i] = assoc.Triple[float64]{Row: e.Key, Col: e.Dst, Val: e.In}
	}
	want, err := assoc.Correlate(assoc.FromTriples(outT, nil), assoc.FromTriples(inT, nil), ops, assoc.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Adjacency.Equal(want, func(a, b float64) bool { return value.Float64Equal(a, b) }) {
		t.Error("concurrent ingest and reads diverged from the batch construction")
	}
}
