package sparse

import (
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
)

func randomCSRFor(r *rand.Rand, rows, cols int, density float64) *CSR[float64] {
	coo := NewCOO[float64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				coo.MustAppend(i, j, float64(r.Intn(9)-4)) // includes zero-sum material
			}
		}
	}
	return coo.ToCSR(nil)
}

func csrEqual(t *testing.T, got, want *CSR[float64], label string) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape/nnz %dx%d/%d, want %dx%d/%d", label,
			got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	for i := 0; i < want.Rows(); i++ {
		gc, gv := got.Row(i)
		wc, wv := want.Row(i)
		if len(gc) != len(wc) {
			t.Fatalf("%s: row %d length %d, want %d", label, i, len(gc), len(wc))
		}
		for p := range wc {
			if gc[p] != wc[p] || gv[p] != wv[p] {
				t.Fatalf("%s: row %d entry %d = (%d,%v), want (%d,%v)",
					label, i, p, gc[p], gv[p], wc[p], wv[p])
			}
		}
	}
}

// TestEWiseAddIntoParallelMatchesSerial differentially checks the
// span-parallel merge against the serial kernel over randomized
// operands, including value cancellations (2 + -2 prunes), skewed
// row masses, and the subset in-place path.
func TestEWiseAddIntoParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ops := semiring.PlusTimes()
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+r.Intn(40), 1+r.Intn(40)
		dst := randomCSRFor(r, rows, cols, 0.2)
		src := randomCSRFor(r, rows, cols, 0.15)
		want, err := EWiseAddInto(dst.Clone(), src, ops, false, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			got, err := EWiseAddIntoParallel(dst.Clone(), src, ops, false, nil, nil, nil, w)
			if err != nil {
				t.Fatal(err)
			}
			csrEqual(t, got, want, "copy-merge")
		}
	}
}

func TestEWiseAddIntoParallelInPlaceSubset(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ops := semiring.PlusTimes()
	for trial := 0; trial < 40; trial++ {
		rows, cols := 1+r.Intn(30), 1+r.Intn(30)
		dst := randomCSRFor(r, rows, cols, 0.3)
		// src's pattern: random subset of dst's entries.
		coo := NewCOO[float64](rows, cols)
		dst.Iterate(func(i, j int, _ float64) {
			if r.Float64() < 0.5 {
				coo.MustAppend(i, j, float64(r.Intn(9)-4))
			}
		})
		src := coo.ToCSR(nil)
		want, err := EWiseAddInto(dst.Clone(), src, ops, true, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := dst.Clone()
		got, err := EWiseAddIntoParallel(in, src, ops, true, nil, nil, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, got, want, "in-place subset")
		if src.NNZ() > 0 && got.NNZ() == in.NNZ() && got != in && want.NNZ() == dst.NNZ() {
			t.Fatal("subset merge did not run in place")
		}
	}
}

// TestEWiseAddIntoParallelScratch checks the scratch-recycled path and
// that results never alias the inputs' storage when a copy is made.
func TestEWiseAddIntoParallelScratch(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ops := semiring.PlusTimes()
	var scratch MergeScratch[float64]
	acc := randomCSRFor(r, 50, 50, 0.1)
	for round := 0; round < 20; round++ {
		src := randomCSRFor(r, 50, 50, 0.05)
		want, err := EWiseAddInto(acc.Clone(), src, ops, false, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		next, err := EWiseAddIntoParallel(acc, src, ops, false, &scratch, nil, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, next, want, "scratch round")
		scratch.Recycle(acc)
		acc = next
	}
}

// TestMulParallelOptFloor verifies the serial-fallback threshold: a
// tiny product under the floor must produce the identical result
// through the serial kernel, and a disabled floor must too (both are
// differentially checked; the fallback itself is observable only as
// the absence of goroutine overhead, covered by the bench ablation).
func TestMulParallelOptFloor(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	ops := semiring.PlusTimes()
	a := randomCSRFor(r, 20, 20, 0.2)
	b := randomCSRFor(r, 20, 20, 0.2)
	want, err := mxm(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, floor := range []int64{0, -1, 1, 1 << 40} {
		got, err := Mxm(nil, a, b, ops, MxmOptions{Workers: 4, FlopFloor: floor})
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, got, want, "flop floor")
	}
}
