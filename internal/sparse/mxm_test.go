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
// under every mask and every scheduling, because a cell's contributions
// always fold in ascending inner-key order.

// mxm is the serial unmasked product, the form most tests want.
func mxm[V any](a, b *CSR[V], ops semiring.Ops[V]) (*CSR[V], error) {
	return Mxm(nil, a, b, ops, MxmOptions{})
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

// filterTo keeps the entries of full at the cells mask stores — what a
// masked product must equal. A nil mask keeps everything.
func filterTo(full, mask *CSR[float64]) *CSR[float64] {
	if mask == nil {
		return full
	}
	out := newRowAppender[float64](full.rows, full.cols)
	for i := 0; i < full.rows; i++ {
		cols, vals := full.Row(i)
		for p, j := range cols {
			if _, ok := mask.At(i, int(j)); ok {
				out.append(j, vals[p])
			}
		}
		out.endRow()
	}
	return out.finish()
}

// checkMxm holds C⟨mask⟩ = a ⊕.⊗ b under every scheduling to the
// MulMerge reference filtered to the mask, and to the MulDense oracle
// when dense says Theorem II.1 licenses the comparison.
func checkMxm(t *testing.T, label string, mask, a, b *CSR[float64], ops semiring.Ops[float64], dense bool) {
	t.Helper()
	ref, err := MulMerge(a, b, ops)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	want := filterTo(ref, mask)
	if dense {
		d, err := MulDense(a, b, ops)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		if !Equal(want, filterTo(d, mask), value.Float64Equal) {
			t.Fatalf("%s: merge reference disagrees with the dense oracle under %s", label, ops.Name)
		}
	}
	var pat *Pattern
	if mask != nil {
		pat = mask.Pattern()
	}
	for _, opt := range mxmSchedules() {
		got, err := Mxm(pat, a, b, ops, opt)
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

// fullMask stores every cell of a rows×cols matrix.
func fullMask(rows, cols int) *CSR[float64] {
	coo := NewCOO[float64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			coo.MustAppend(i, j, 1)
		}
	}
	return coo.ToCSR(nil)
}

// The table: algebras × operand shapes × masks, each cell run under
// every scheduling by checkMxm.
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
		// Every row folds to zero under +.*: the compaction path, which
		// under a mask bound also has to drop whole rows.
		shape{"all-pruned", cancelA, cancelB},
	)
	for _, sh := range shapes {
		rows, cols := sh.a.rows, sh.b.cols
		emptyRows := signedCSR(r, rows, cols, 0.4)
		for i := 0; i < rows; i += 2 { // every other mask row empty
			emptyRows = dropRow(emptyRows, i)
		}
		masks := map[string]*CSR[float64]{
			"nil":        nil,
			"random":     signedCSR(r, rows, cols, 0.3),
			"empty-rows": emptyRows,
			// Mostly cells the product never reaches: rows end far
			// short of the mask bound.
			"not-subset": signedCSR(r, rows, cols, 0.9),
			"full":       fullMask(rows, cols),
			"empty":      Empty[float64](rows, cols),
		}
		for mname, mask := range masks {
			for _, alg := range algebras {
				checkMxm(t, sh.name+"/mask="+mname, mask, sh.a, sh.b, alg.ops, alg.dense)
			}
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

// dropRow returns m with row i emptied.
func dropRow(m *CSR[float64], i int) *CSR[float64] {
	coo := NewCOO[float64](m.rows, m.cols)
	m.Iterate(func(r, c int, v float64) {
		if r != i {
			coo.MustAppend(r, c, v)
		}
	})
	return coo.ToCSR(nil)
}

// max.min inside its own domain (non-negative values), where Theorem
// II.1 holds and the dense oracle applies.
func TestMxmMaxMinMatchesDenseOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		a := randomCSR(r, 1+r.Intn(25), 20, 0.25)
		b := randomCSR(r, 20, 1+r.Intn(25), 0.25)
		checkMxm(t, fmt.Sprintf("trial%d", trial), nil, a, b, semiring.MaxMin(), true)
		checkMxm(t, fmt.Sprintf("trial%d/masked", trial), randomCSR(r, a.rows, b.cols, 0.4), a, b, semiring.MaxMin(), true)
	}
}

// The mask is shared, never written: its index arrays are bit-identical
// after masked products that prune, compact and trim.
func TestMxmLeavesMaskUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := signedCSR(r, 30, 20, 0.3)
	b := signedCSR(r, 20, 25, 0.3)
	mask := signedCSR(r, 30, 25, 0.8)
	before := mask.Clone()
	for _, opt := range mxmSchedules() {
		if _, err := Mxm(mask.Pattern(), a, b, semiring.PlusTimes(), opt); err != nil {
			t.Fatal(err)
		}
	}
	if !Equal(before, mask, value.Float64Equal) {
		t.Fatal("masked product wrote into its mask")
	}
}

// A selective mask leaves most of the mask-bounded storage unused; the
// result must not keep pinning it.
func TestMxmTrimsSparselyFilledBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := signedCSR(r, 50, 40, 0.02)
	b := signedCSR(r, 40, 60, 0.02)
	got, err := Mxm(fullMask(50, 60).Pattern(), a, b, semiring.PlusTimes(), MxmOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() >= 50*60/2 {
		t.Fatalf("instance not selective enough: nnz %d", got.NNZ())
	}
	if cap(got.colIdx) != got.NNZ() || cap(got.val) != got.NNZ() {
		t.Errorf("result keeps cap %d/%d for %d entries", cap(got.colIdx), cap(got.val), got.NNZ())
	}
}

// Scratch-pool aliasing: concurrent products of different shapes and
// value types draw from the same pools (stamp boxes are shared across
// types, masked rows advance stamps by two, unmasked by one). Every
// result must match its private reference; run under -race this also
// sweeps the claim that no pooled buffer is reachable from a result.
func TestMxmScratchPoolAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	type job struct {
		mask, a, b, want *CSR[float64]
	}
	var jobs []job
	for i := 0; i < 6; i++ {
		rows, inner, cols := 5+r.Intn(60), 5+r.Intn(60), 5+r.Intn(200)
		a, b := signedCSR(r, rows, inner, 0.2), signedCSR(r, inner, cols, 0.2)
		var mask *CSR[float64]
		if i%2 == 1 {
			mask = signedCSR(r, rows, cols, 0.4)
		}
		ref, err := MulMerge(a, b, subtractOps())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{mask, a, b, filterTo(ref, mask)})
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
				var pat *Pattern
				if j.mask != nil {
					pat = j.mask.Pattern()
				}
				got, err := Mxm(pat, j.a, j.b, subtractOps(), MxmOptions{Workers: 1 + g%3, FlopFloor: -1})
				if err != nil {
					t.Error(err)
					return
				}
				if !Equal(j.want, got, value.Float64Equal) {
					t.Errorf("goroutine %d iter %d: result corrupted by shared scratch", g, iter)
					return
				}
				sgot, err := Mxm(nil, setM, setM, setOps, MxmOptions{})
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

// Allocation pin: a warm serial unmasked product allocates its output
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
		got, err := Mxm(nil, a, b, ops, MxmOptions{Workers: 4, FlopFloor: floor})
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, got, want, "flop floor")
	}
}
