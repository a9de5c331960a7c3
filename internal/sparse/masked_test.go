package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
)

func TestMulMaskedEqualsFilteredProduct(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		a := randomCSR(r, 20, 25, 0.2)
		b := randomCSR(r, 25, 15, 0.2)
		mask := randomCSR(r, 20, 15, 0.3)
		checkMxm(t, fmt.Sprintf("trial %d", trial), mask, a, b, semiring.PlusTimes(), true)
	}
}

func TestMulMaskedDimChecks(t *testing.T) {
	a := Empty[float64](2, 3)
	b := Empty[float64](3, 4)
	badMask := Empty[float64](2, 5)
	_, err := Mxm(badMask.Pattern(), a, b, semiring.PlusTimes(), MxmOptions{})
	var se *ShapeError
	if !asShapeError(err, &se) {
		t.Errorf("mismatched mask: got %v, want *ShapeError", err)
	}
	badB := Empty[float64](9, 4)
	if _, err := Mxm(Empty[float64](2, 4).Pattern(), a, badB, semiring.PlusTimes(), MxmOptions{}); err == nil {
		t.Error("mismatched inner dims accepted")
	}
}

func TestMulMaskedEmptyMaskGivesEmptyResult(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randomCSR(r, 10, 10, 0.5)
	got, err := Mxm(Empty[float64](10, 10).Pattern(), a, a, semiring.PlusTimes(), MxmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Errorf("empty mask produced %d entries", got.NNZ())
	}
}

func TestMulMaskedFoldOrderNonCommutative(t *testing.T) {
	// Same contract as the unmasked product: ascending-k fold.
	r := rand.New(rand.NewSource(6))
	a := randomCSR(r, 15, 20, 0.3)
	b := randomCSR(r, 20, 15, 0.3)
	mask := randomCSR(r, 15, 15, 0.5)
	ops := semiring.LeftmostNonzero()
	got, err := Mxm(mask.Pattern(), a, b, ops, MxmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := MulMerge(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	got.Iterate(func(i, j int, v float64) {
		if fv, ok := full.At(i, j); !ok || fv != v {
			t.Errorf("masked (%d,%d)=%v differs from full %v", i, j, v, fv)
		}
	})
}

func TestSortInts(t *testing.T) {
	xs := []int32{5, 1, 4, 1, 3}
	sortInts(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			t.Fatalf("not sorted: %v", xs)
		}
	}
	sortInts(nil) // must not panic
}
