package sparse

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// mxm_test.go — the engine's differential table. The repo's defining
// correctness contract: Mxm is bit-identical to the MulMerge reference
// for every ⊕ — including non-commutative and non-associative ones —
// under every scheduling, because a cell's contributions always fold in
// ascending inner-key order.

// mxm is the serial product, the form most tests want.
func mxm[V any](a, b *CSR[V], ops semiring.Ops[V]) (*CSR[V], error) {
	return Mxm(a, b, ops, MxmOptions{})
}

// mxmSchedules is every scheduling the engine is held to: serial both
// ways of saying it, spans that divide the rows unevenly, more workers
// than rows, GOMAXPROCS — each with the default floor (tiny products
// fall back to one inline span) and with the fallback disabled.
func mxmSchedules() []MxmOptions {
	var out []MxmOptions
	for _, w := range []int{0, 1, 2, 3, 16, -1} {
		for _, floor := range []int64{0, -1} {
			out = append(out, MxmOptions{Workers: w, FlopFloor: floor})
		}
	}
	return out
}

// checkMxm holds a ⊕.⊗ b under every scheduling to the MulMerge
// reference, and to the MulDense oracle when dense says Theorem II.1
// licenses the comparison.
func checkMxm(t *testing.T, label string, a, b *CSR[float64], ops semiring.Ops[float64], dense bool) {
	t.Helper()
	want, err := MulMerge(a, b, ops)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if dense {
		d, err := MulDense(a, b, ops)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		if !Equal(want, d, value.Float64Equal) {
			t.Fatalf("%s: merge reference disagrees with the dense oracle under %s", label, ops.Name)
		}
	}
	for _, opt := range mxmSchedules() {
		got, err := Mxm(a, b, ops, opt)
		if err != nil {
			t.Fatalf("%s %s %+v: %v", label, ops.Name, opt, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s %s %+v: invalid CSR: %v", label, ops.Name, opt, err)
		}
		if !Equal(want, got, value.Float64Equal) {
			t.Fatalf("%s %s %+v: differs from the merge reference", label, ops.Name, opt)
		}
	}
}

// hubSkewedCSR builds a matrix where a handful of hub rows carry most of
// the entries — the adversarial shape for span scheduling: a naive
// rows/workers split serializes one worker on the hubs while the rest
// idle.
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

// The table: algebras × operand shapes, each cell run under every
// scheduling by checkMxm.
func TestMxmDifferential(t *testing.T) {
	algebras := []struct {
		ops semiring.Ops[float64]
		// dense: Theorem II.1 (plus 0 a two-sided ⊕-identity) holds on
		// signed integers, so sparse == dense is the theorem's content.
		// a−b has no left identity: the oracle legitimately differs.
		dense bool
	}{
		{semiring.PlusTimes(), true},
		{semiring.LeftmostNonzero(), true},
		{subtractOps(), false},
		{semiring.MaxMin(), false}, // signed values leave max.min's domain
	}
	r := rand.New(rand.NewSource(2024))
	type shape struct {
		name string
		a, b *CSR[float64]
	}
	var shapes []shape
	for trial := 0; trial < 12; trial++ {
		rows, inner, cols := 1+r.Intn(40), 1+r.Intn(40), 1+r.Intn(40)
		density := 0.05 + r.Float64()*0.4
		shapes = append(shapes, shape{fmt.Sprintf("random%d", trial), signedCSR(r, rows, inner, density), signedCSR(r, inner, cols, density)})
	}
	cancelA, cancelB := cancellingPair()
	shapes = append(shapes,
		shape{"0-row", Empty[float64](0, 5), signedCSR(r, 5, 7, 0.5)},
		shape{"0-col", signedCSR(r, 6, 5, 0.5), Empty[float64](5, 0)},
		shape{"0-inner", Empty[float64](4, 0), Empty[float64](0, 3)},
		shape{"empty-operands", Empty[float64](3, 4), Empty[float64](4, 2)},
		shape{"hub-skew", hubSkewedCSR(r, 60, 50, 3, 0.7, 0.03), hubSkewedCSR(r, 50, 70, 2, 0.6, 0.04)},
		// Every row folds to zero under +.*: the compaction path.
		shape{"all-pruned", cancelA, cancelB},
	)
	for _, sh := range shapes {
		for _, alg := range algebras {
			checkMxm(t, sh.name, sh.a, sh.b, alg.ops, alg.dense)
		}
	}
}

// cancellingPair returns a·b whose every entry folds to exactly zero
// under +.*: each row of a has a +v/−v pair meeting identical b rows.
func cancellingPair() (a, b *CSR[float64]) {
	cooA := NewCOO[float64](4, 2)
	for i := 0; i < 4; i++ {
		cooA.MustAppend(i, 0, float64(i+1))
		cooA.MustAppend(i, 1, -float64(i+1))
	}
	cooB := NewCOO[float64](2, 3)
	for j := 0; j < 3; j++ {
		cooB.MustAppend(0, j, float64(j+2))
		cooB.MustAppend(1, j, float64(j+2))
	}
	return cooA.ToCSR(nil), cooB.ToCSR(nil)
}

// max.min inside its own domain (non-negative values), where Theorem
// II.1 holds and the dense oracle applies.
func TestMxmMaxMinMatchesDenseOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		a := randomCSR(r, 1+r.Intn(25), 20, 0.25)
		b := randomCSR(r, 20, 1+r.Intn(25), 0.25)
		checkMxm(t, fmt.Sprintf("trial%d", trial), a, b, semiring.MaxMin(), true)
	}
}

// A product whose cells mostly cancel to zero leaves most of its
// symbolic bound unused; the result must not keep pinning it.
func TestMxmTrimsSparselyFilledBound(t *testing.T) {
	// Every row of a meets b's rows 0 and 1 with +1 and −1, which cancel
	// over all 60 columns; every tenth row also meets row 2's 5 entries.
	cooA, cooB := NewCOO[float64](50, 3), NewCOO[float64](3, 60)
	for i := 0; i < 50; i++ {
		cooA.MustAppend(i, 0, 1)
		cooA.MustAppend(i, 1, -1)
		if i%10 == 0 {
			cooA.MustAppend(i, 2, 1)
		}
	}
	for j := 0; j < 60; j++ {
		cooB.MustAppend(0, j, float64(j+1))
		cooB.MustAppend(1, j, float64(j+1))
		if j%12 == 0 {
			cooB.MustAppend(2, j, 1)
		}
	}
	got, err := mxm(cooA.ToCSR(nil), cooB.ToCSR(nil), semiring.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 25 {
		t.Fatalf("nnz %d, want 25 of a 3000-entry bound", got.NNZ())
	}
	if cap(got.colIdx) != got.NNZ() || cap(got.val) != got.NNZ() {
		t.Errorf("result keeps cap %d/%d for %d entries", cap(got.colIdx), cap(got.val), got.NNZ())
	}
}

// Scratch-pool aliasing: concurrent products of different shapes and
// value types draw from the same pools (stamp boxes are shared across
// types). Every result must match its private reference; run under -race this also
// sweeps the claim that no pooled buffer is reachable from a result.
func TestMxmScratchPoolAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	type job struct {
		a, b, want *CSR[float64]
	}
	var jobs []job
	for i := 0; i < 6; i++ {
		rows, inner, cols := 5+r.Intn(60), 5+r.Intn(60), 5+r.Intn(200)
		a, b := signedCSR(r, rows, inner, 0.2), signedCSR(r, inner, cols, 0.2)
		want, err := MulMerge(a, b, subtractOps())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{a, b, want})
	}
	sets := NewCOO[value.Set](2, 2)
	sets.MustAppend(0, 0, value.NewSet("x"))
	sets.MustAppend(0, 1, value.NewSet("y"))
	sets.MustAppend(1, 1, value.NewSet("z"))
	setM := sets.ToCSR(nil)
	setOps := semiring.PowerSet(value.NewSet("x", "y", "z"))
	setWant, err := MulMerge(setM, setM, setOps)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				j := jobs[(g+iter)%len(jobs)]
				got, err := Mxm(j.a, j.b, subtractOps(), MxmOptions{Workers: 1 + g%3, FlopFloor: -1})
				if err != nil {
					t.Error(err)
					return
				}
				if !Equal(j.want, got, value.Float64Equal) {
					t.Errorf("goroutine %d iter %d: result corrupted by shared scratch", g, iter)
					return
				}
				sgot, err := Mxm(setM, setM, setOps, MxmOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if !Equal(setWant, sgot, func(x, y value.Set) bool { return x.Equal(y) }) {
					t.Errorf("goroutine %d iter %d: set-valued result corrupted", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Allocation pin: a warm serial product allocates its output
// and nothing else — rowPtr, colIdx, val, rowLen, the CSR header and
// the accumulator view, the same six the dedicated serial kernel made
// before the engines were collapsed. The closures and span bookkeeping
// of the parallel path must stay off the serial one.
func TestMxmSerialAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	a, b := incidenceWorkload(256, 8)
	for _, ops := range []semiring.Ops[float64]{semiring.PlusTimes(), semiring.MaxMin()} {
		if _, err := mxm(a, b, ops); err != nil { // warm the pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := mxm(a, b, ops); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 6 {
			t.Errorf("%s: serial Mxm allocates %.0f times per product, want ≤ 6", ops.Name, allocs)
		}
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
		got, err := Mxm(a, b, ops, MxmOptions{Workers: 4, FlopFloor: floor})
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, got, want, "flop floor")
	}
}
