package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// twophase_test.go — the two-phase engine's specific hazards:
// cancellation under the symbolic bound, disjoint parallel writes, and
// the adaptive emission choice. mxm_test.go holds the broad table.

// signedCSR generates a random matrix with values in {-4..-1, 1..4} so
// +.* products can cancel to exactly zero, exercising the two-phase
// engine's post-prune compaction (a row's numeric count < its symbolic
// count).
func signedCSR(r *rand.Rand, rows, cols int, density float64) *CSR[float64] {
	coo := NewCOO[float64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				v := float64(1 + r.Intn(4))
				if r.Intn(2) == 0 {
					v = -v
				}
				coo.MustAppend(i, j, v)
			}
		}
	}
	return coo.ToCSR(nil)
}

// subtractOps is a deliberately pathological ⊕ = a−b: non-commutative,
// non-associative, and 0 is only a right identity. The ascending-k fold
// contract still pins down a unique result for every kernel.
func subtractOps() semiring.Ops[float64] {
	return semiring.Ops[float64]{
		Name: "sub.*",
		Add:  func(a, b float64) float64 { return a - b },
		Mul:  func(a, b float64) float64 { return a * b },
		Zero: 0, One: 1,
		Equal: value.Float64Equal,
	}
}

// The engine under every scheduling must be bit-identical to the merge
// reference on random signed matrices under +.* (specialized row
// function + cancellation pruning), first.* (non-commutative ⊕), and
// a−b (non-commutative AND non-associative, no left identity).
func TestTwoPhaseVariantsBitIdenticalToOracle(t *testing.T) {
	algebras := []semiring.Ops[float64]{
		semiring.PlusTimes(),
		semiring.LeftmostNonzero(),
		subtractOps(),
	}
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		rows, inner, cols := 1+r.Intn(40), 1+r.Intn(40), 1+r.Intn(40)
		density := 0.05 + r.Float64()*0.4
		a := signedCSR(r, rows, inner, density)
		b := signedCSR(r, inner, cols, density)
		for _, ops := range algebras {
			checkMxm(t, fmt.Sprintf("trial %d", trial), nil, a, b, ops, false)
		}
	}
}

// Cancellation stress: a matrix times its own negation-augmented
// partner produces many exact zeros, so the numeric pass writes fewer
// entries than the symbolic pass counted and finalizeTwoPhase must
// compact. The structural invariants and oracle equality must survive.
func TestTwoPhaseCompactsPrunedRows(t *testing.T) {
	// b has paired rows +v/−v so products against a's two-entry row
	// fold to exactly zero.
	cooA := NewCOO[float64](3, 2)
	cooA.MustAppend(0, 0, 1)
	cooA.MustAppend(0, 1, 1)
	cooA.MustAppend(1, 0, 2)
	cooA.MustAppend(2, 1, 3)
	a := cooA.ToCSR(nil)

	cooB := NewCOO[float64](2, 3)
	cooB.MustAppend(0, 0, 5)
	cooB.MustAppend(0, 2, 1)
	cooB.MustAppend(1, 0, -5) // cancels row 0, col 0
	cooB.MustAppend(1, 1, 7)
	b := cooB.ToCSR(nil)

	ops := semiring.PlusTimes()
	ref, err := MulMerge(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mxm(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(ref, got, value.Float64Equal) {
		t.Fatalf("compacted result differs from oracle:\nref %v\ngot %v", ref, got)
	}
	if _, ok := got.At(0, 0); ok {
		t.Error("cancelled entry (0,0) survived pruning")
	}
	par, err := Mxm(nil, a, b, ops, MxmOptions{Workers: 3, FlopFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(ref, par, value.Float64Equal) {
		t.Error("parallel compaction differs from oracle")
	}
}

// The parallel numeric pass writes into disjoint preallocated ranges;
// run it with many workers over a larger product so the race detector
// (go test -race) sweeps the disjoint-write claim.
func TestMulParallelNumericPassRace(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := signedCSR(r, 300, 200, 0.08)
	b := signedCSR(r, 200, 250, 0.08)
	ops := semiring.PlusTimes()
	ref, err := mxm(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 8, 16} {
		got, err := Mxm(nil, a, b, ops, MxmOptions{Workers: w, FlopFloor: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(ref, got, value.Float64Equal) {
			t.Fatalf("workers=%d differs from serial", w)
		}
	}
}

// The adaptive emission must agree with the sort-always path entry for
// entry on workloads mixing dense and hypersparse rows — masked rows
// included, which emit through the same spa.emit.
func TestAdaptiveEmissionMatchesSortAlways(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ops := semiring.LeftmostNonzero()
	for trial := 0; trial < 10; trial++ {
		a := signedCSR(r, 40, 30, 0.3)
		b := signedCSR(r, 30, 500, 0.02+r.Float64()*0.2)
		for _, mask := range []*Pattern{nil, signedCSR(r, 40, 500, 0.5).Pattern()} {
			adaptive, err := Mxm(mask, a, b, ops, MxmOptions{})
			if err != nil {
				t.Fatal(err)
			}
			old := adaptiveSpanFactor
			adaptiveSpanFactor = 0 // force the sort path everywhere
			sorted, err := Mxm(mask, a, b, ops, MxmOptions{})
			adaptiveSpanFactor = old
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(adaptive, sorted, value.Float64Equal) {
				t.Fatalf("adaptive emission changed the result (masked=%v)", mask != nil)
			}
		}
	}
}
