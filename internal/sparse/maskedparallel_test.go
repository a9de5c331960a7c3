package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// hubSkewedCSR builds a matrix where a handful of hub rows carry most of
// the entries — the adversarial shape for span scheduling: a naive
// rows/workers split serializes one worker on the hubs while the rest
// idle, and a masked product concentrates the numeric cost wherever the
// mask admits the hubs' columns.
func hubSkewedCSR(r *rand.Rand, rows, cols, hubs int, hubDensity, tailDensity float64) *CSR[float64] {
	coo := NewCOO[float64](rows, cols)
	for i := 0; i < rows; i++ {
		d := tailDensity
		if i < hubs {
			d = hubDensity
		}
		for j := 0; j < cols; j++ {
			if r.Float64() < d {
				v := float64(1 + r.Intn(5))
				if r.Intn(2) == 0 {
					v = -v
				}
				coo.MustAppend(i, j, v)
			}
		}
	}
	return coo.ToCSR(nil)
}

// The masked product must match the filtered merge reference under
// every scheduling for every algebra the unmasked product is held to:
// +.* (cancellation pruning), first.* (non-commutative ⊕), and a−b
// (non-commutative AND non-associative).
func TestMulMaskedParallelBitIdenticalToSerial(t *testing.T) {
	algebras := []semiring.Ops[float64]{
		semiring.PlusTimes(),
		semiring.LeftmostNonzero(),
		subtractOps(),
	}
	r := rand.New(rand.NewSource(321))
	for trial := 0; trial < 25; trial++ {
		rows, inner, cols := 1+r.Intn(40), 1+r.Intn(40), 1+r.Intn(40)
		density := 0.05 + r.Float64()*0.4
		a := signedCSR(r, rows, inner, density)
		b := signedCSR(r, inner, cols, density)
		mask := signedCSR(r, rows, cols, 0.05+r.Float64()*0.5)
		for _, ops := range algebras {
			checkMxm(t, fmt.Sprintf("trial %d", trial), mask, a, b, ops, false)
		}
	}
}

// Hub-skewed instances: the flops concentrate in the hub rows, so the
// flop-balanced spans are far from an even row split, and the mask
// decides how much of each hub row survives. Run with -race this also
// sweeps the disjoint-write claim of the numeric pass under a mask
// bound.
func TestMulMaskedParallelHubSkew(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	a := hubSkewedCSR(r, 200, 150, 4, 0.7, 0.02)
	b := hubSkewedCSR(r, 150, 180, 3, 0.6, 0.03)
	masks := map[string]*CSR[float64]{
		"dense":    signedCSR(r, 200, 180, 0.6),
		"sparse":   signedCSR(r, 200, 180, 0.03),
		"empty":    Empty[float64](200, 180),
		"hub-only": hubSkewedCSR(r, 200, 180, 4, 0.9, 0.0),
	}
	for _, ops := range []semiring.Ops[float64]{semiring.PlusTimes(), semiring.MinPlus()} {
		for name, mask := range masks {
			checkMxm(t, "mask "+name, mask, a, b, ops, false)
		}
	}
}

// Below the flop floor (and for workers <= 1) the call must take the
// inline path and still agree; an explicit floor above the instance's
// scan flops exercises the fallback branch.
func TestMulMaskedParallelSerialFallback(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := randomCSR(r, 12, 10, 0.3)
	b := randomCSR(r, 10, 14, 0.3)
	mask := randomCSR(r, 12, 14, 0.4)
	ops := semiring.PlusTimes()
	ref, err := MulMerge(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	want := filterTo(ref, mask)
	for _, tc := range []struct {
		name    string
		workers int
		floor   int64
	}{
		{"workers1", 1, -1},
		{"workers0", 0, -1},
		{"floorDefault", 4, 0}, // tiny instance sits below DefaultParallelFlopFloor
		{"floorHuge", 4, 1 << 40},
	} {
		got, err := Mxm(mask.Pattern(), a, b, ops, MxmOptions{Workers: tc.workers, FlopFloor: tc.floor})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !Equal(want, got, value.Float64Equal) {
			t.Fatalf("%s: fallback result differs from the reference", tc.name)
		}
	}
}

func TestMulMaskedParallelDimChecks(t *testing.T) {
	a := Empty[float64](2, 3)
	b := Empty[float64](3, 4)
	par := MxmOptions{Workers: 4, FlopFloor: -1}
	if _, err := Mxm(Empty[float64](2, 5).Pattern(), a, b, semiring.PlusTimes(), par); err == nil {
		t.Error("mismatched mask accepted")
	}
	if _, err := Mxm(Empty[float64](2, 4).Pattern(), a, Empty[float64](9, 4), semiring.PlusTimes(), par); err == nil {
		t.Error("mismatched inner dims accepted")
	}
}

// The masked product serial and at 2 and 4 workers, on a hub-skewed
// instance under a half-dense mask.
func BenchmarkMulMaskedParallel(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	a := hubSkewedCSR(r, 2000, 1500, 16, 0.4, 0.01)
	m2 := hubSkewedCSR(r, 1500, 1800, 12, 0.35, 0.012)
	mask := signedCSR(r, 2000, 1800, 0.12).Pattern()
	ops := semiring.PlusTimes()
	for _, arm := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"par2", 2}, {"par4", 4}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Mxm(mask, a, m2, ops, MxmOptions{Workers: arm.workers, FlopFloor: -1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
