package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
)

// pointVariant is one way TestPointReadMatchesTheFoldItSkipped drives a
// view: what weights an edge carries, and what else happens per batch.
type pointVariant struct {
	name   string
	fold   bool // a Snapshot after every batch: pins meet a freshly folded main
	weigh  func(r *rand.Rand, e *Edge[float64])
	fresh  bool // every batch brings a vertex nothing has seen, on alternating sides
	doomed bool // every third batch is preceded by one that dies after interning its endpoints
}

func pointVariants(ops semiring.Ops[float64], sample []float64) []pointVariant {
	pick := func(r *rand.Rand, from []float64) float64 { return from[r.Intn(len(from))] }
	usable := nonZero(sample, ops)
	both := func(from []float64) func(*rand.Rand, *Edge[float64]) {
		return func(r *rand.Rand, e *Edge[float64]) {
			e.Out, e.In, e.HasOut, e.HasIn = pick(r, from), pick(r, from), true, true
		}
	}
	return []pointVariant{
		{name: "unweighted", weigh: func(*rand.Rand, *Edge[float64]) {}},
		{name: "weighted", weigh: both(usable)},
		{name: "out-only", weigh: func(r *rand.Rand, e *Edge[float64]) { e.Out, e.HasOut = pick(r, usable), true }},
		{name: "in-only", weigh: func(r *rand.Rand, e *Edge[float64]) { e.In, e.HasIn = pick(r, usable), true }},
		// Explicit Zero weights: contributions, and whole suffix folds, that
		// the fold prunes.
		{name: "explicit-zero", weigh: both(append([]float64{ops.Zero, ops.Zero}, sample...))},
		{name: "fresh-vertex", weigh: both(usable), fresh: true},
		{name: "rolled-back", weigh: both(usable), doomed: true},
		{name: "budget-1", weigh: both(usable), fold: true},
	}
}

type cellRead struct {
	v      float64
	stored bool
}

// rowOf is src's row of a folded adjacency, read off the CSR.
func rowOf(adj *assoc.Array[float64], src string) (row []assoc.Triple[float64]) {
	if i, ok := adj.RowKeys().Index(src); ok {
		cols, vals := adj.Matrix().Row(i)
		for p, j := range cols {
			row = append(row, assoc.Triple[float64]{Row: src, Col: adj.ColKeys().Key(int(j)), Val: vals[p]})
		}
	}
	return row
}

func pointRow(pt PointSnapshot[float64], src string) (row []assoc.Triple[float64]) {
	pt.Row(src, func(dst string, v float64) { row = append(row, assoc.Triple[float64]{Row: src, Col: dst, Val: v}) })
	return row
}

func sameRows(a, b []assoc.Triple[float64]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Col != b[i].Col || !sameBits(a[i].Val, b[i].Val) {
			return false
		}
	}
	return true
}

// A point read equals the fold it did not run. For every registry pair —
// over its adversarial sample, so NaN, infinities, signed zero and the
// non-associative, non-commutative and zero-divisor cases are all in —
// and every way of driving a view above, batches are appended and, after a
// random subset of them, every cell and row anything has touched (and keys
// nothing has: never interned, or interned by a batch that was rolled
// back) is read through the point pin, then through the Snapshot the same
// view returns one call later. Both are main ⊕ fold(suffix) in one
// grouping, so they must agree bit for bit under any ⊕, with no tolerance;
// and the pin, taken before that fold, must read the same after it. A
// second goroutine appends rows of its own all the while: under -race this
// is the check that a pin shares nothing an append or a fold writes.
func TestPointReadMatchesTheFoldItSkipped(t *testing.T) {
	errDoomed := errors.New("rolled back")
	for _, entry := range semiring.Registry() {
		for _, vr := range pointVariants(entry.Ops, entry.AdversarialSample()) {
			t.Run(entry.Name+"/"+vr.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(len(entry.Name)*31 + len(vr.name))))
				v := NewView(entry.Ops)
				var doom atomic.Bool
				v.failpoint = func(site string) error {
					if site == "append:interned" && doom.CompareAndSwap(true, false) {
						return errDoomed
					}
					return nil
				}
				stop, done := make(chan struct{}), make(chan struct{})
				go func() { // rows "~…" are this goroutine's alone
					defer close(done)
					cr := rand.New(rand.NewSource(1))
					for i := 0; i < 400; i++ {
						select {
						case <-stop:
							return
						default:
						}
						e := Edge[float64]{Src: fmt.Sprintf("~s%d", i%3), Dst: fmt.Sprintf("v%d", i%5)}
						vr.weigh(cr, &e)
						if err := v.Append([]Edge[float64]{e}); err != nil && !errors.Is(err, errDoomed) {
							t.Errorf("concurrent append: %v", err)
							return
						}
						runtime.Gosched()
					}
				}()
				defer func() { close(stop); <-done }()

				srcs := []string{"never-appended", "orphan-s"}
				dsts := []string{"never-appended", "orphan-d"}
				seen := map[string]bool{}
				touch := func(list *[]string, side, k string) {
					if !seen[side+k] {
						seen[side+k] = true
						*list = append(*list, k)
					}
				}
				compared, overSuffix := 0, 0
				for round := 0; round < 40; round++ {
					if vr.doomed && round%3 == 0 {
						doom.Store(true)
						err := v.Append([]Edge[float64]{{Src: "orphan-s", Dst: "orphan-d"}, {Src: "v0", Dst: "orphan-d"}})
						if doom.Load() { // the other goroutine's batch did not take the failure
							t.Fatalf("doomed batch: %v", err)
						}
					}
					batch := make([]Edge[float64], 1+r.Intn(4))
					for i := range batch {
						e := Edge[float64]{Src: fmt.Sprintf("v%d", r.Intn(6)), Dst: fmt.Sprintf("v%d", r.Intn(6))}
						if vr.fresh && i == 0 {
							if name := fmt.Sprintf("n%02d", round); round%2 == 0 {
								e.Src = name
							} else {
								e.Dst = name
							}
						}
						vr.weigh(r, &e)
						touch(&srcs, "s", e.Src)
						touch(&dsts, "d", e.Dst)
						batch[i] = e
					}
					if err := v.Append(batch); err != nil {
						t.Fatal(err)
					}
					if vr.fold {
						mustSnap(t, v)
					}
					if r.Intn(2) == 0 {
						continue
					}
					pt, err := v.Point()
					if err != nil {
						t.Fatal(err)
					}
					if pt.Suffix() > 0 {
						overSuffix++
					}
					read := func() (cells []cellRead, rows [][]assoc.Triple[float64]) {
						for _, s := range srcs {
							for _, d := range dsts {
								val, ok := pt.At(s, d)
								cells = append(cells, cellRead{val, ok})
							}
							rows = append(rows, pointRow(pt, s))
						}
						return cells, rows
					}
					cells, rows := read()
					adj := mustSnap(t, v).Adjacency
					again, rowsAgain := read()
					at := 0
					for i, s := range srcs {
						for _, d := range dsts {
							want, ok := adj.At(s, d)
							if got := cells[at]; got.stored != ok || !sameBits(got.v, want) {
								t.Fatalf("round %d, %d unfolded edges: point read (%q,%q) = %v,%v; the fold stored %v,%v",
									round, pt.Suffix(), s, d, got.v, got.stored, want, ok)
							}
							if got := again[at]; got.stored != ok || !sameBits(got.v, want) {
								t.Fatalf("round %d: the pin reads (%q,%q) = %v,%v once the view has folded; it read %v,%v before",
									round, s, d, got.v, got.stored, want, ok)
							}
							at++
							compared++
						}
						if want := rowOf(adj, s); !sameRows(rows[i], want) || !sameRows(rowsAgain[i], want) {
							t.Fatalf("round %d, %d unfolded edges: point row %q = %v (%v after the fold); the fold stored %v",
								round, pt.Suffix(), s, rows[i], rowsAgain[i], want)
						}
					}
				}
				if compared == 0 || (overSuffix == 0 && !vr.fold) {
					t.Fatalf("%d cells compared, %d pins over an unfolded suffix: the test did not test", compared, overSuffix)
				}
			})
		}
	}
}

// A point pin folds nothing up to the threshold and folds first past it;
// a pin taken while a value column did not exist keeps reading One once a
// weighted edge has brought it into being.
func TestPointPinFoldsOnlyPastTheThreshold(t *testing.T) {
	v := NewView(semiring.PlusTimes())
	if err := v.Append(unkeyedBatch(foldScratchKeep)); err != nil {
		t.Fatal(err)
	}
	first := unkeyedBatch(1)[0]
	pt, err := v.Point()
	if st := v.Stats(); err != nil || pt.Folded || pt.Suffix() != foldScratchKeep || st.Folds != 0 || st.PendingNNZ != foldScratchKeep {
		t.Fatalf("at the threshold: %v, pin over %d edges (folded %v), stats %+v", err, pt.Suffix(), pt.Folded, st)
	}
	if err := v.Append([]Edge[float64]{Weighted("", first.Src, first.Dst, 3.0, 5.0)}); err != nil {
		t.Fatal(err)
	}
	if got, ok := pt.At(first.Src, first.Dst); !ok || got != 1 {
		t.Errorf("the earlier pin reads (%v, %v) after a weighted append; want its own 1", got, ok)
	}
	pt, err = v.Point()
	if st := v.Stats(); err != nil || !pt.Folded || pt.Suffix() != 0 || st.Folds != 1 || st.PendingNNZ != 0 {
		t.Fatalf("one edge past the threshold: %v, pin over %d edges (folded %v), stats %+v", err, pt.Suffix(), pt.Folded, st)
	}
	if got, ok := pt.At(first.Src, first.Dst); !ok || got != 16 {
		t.Errorf("the folded pin reads (%v, %v); want 1 + 3·5", got, ok)
	}
}
