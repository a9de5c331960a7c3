package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

func fromTriples(t *testing.T, rows, cols int, ts [][3]float64) *CSR[float64] {
	t.Helper()
	coo := NewCOO[float64](rows, cols)
	for _, x := range ts {
		if err := coo.Append(int(x[0]), int(x[1]), x[2]); err != nil {
			t.Fatal(err)
		}
	}
	return coo.ToCSR(nil)
}

func TestCOOBasics(t *testing.T) {
	coo := NewCOO[float64](2, 3)
	if coo.Rows() != 2 || coo.Cols() != 3 || coo.Len() != 0 {
		t.Fatal("fresh COO wrong")
	}
	if err := coo.Append(2, 0, 1); err == nil {
		t.Error("row out of range accepted")
	}
	if err := coo.Append(0, 3, 1); err == nil {
		t.Error("col out of range accepted")
	}
	coo.MustAppend(1, 2, 5)
	if coo.Len() != 1 {
		t.Error("Append not recorded")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAppend should panic out of range")
		}
	}()
	coo.MustAppend(9, 9, 1)
}

func TestCOODuplicateCombine(t *testing.T) {
	coo := NewCOO[float64](1, 1)
	coo.MustAppend(0, 0, 1)
	coo.MustAppend(0, 0, 2)
	coo.MustAppend(0, 0, 4)

	// nil combine keeps the last write (D4M overwrite semantics).
	last := coo.ToCSR(nil)
	if v, _ := last.At(0, 0); v != 4 {
		t.Errorf("overwrite semantics: got %v, want 4", v)
	}
	// additive combine folds in insertion order.
	sum := coo.ToCSR(func(a, b float64) float64 { return a + b })
	if v, _ := sum.At(0, 0); v != 7 {
		t.Errorf("sum combine: got %v, want 7", v)
	}
	// non-commutative combine: left fold 1→2→4 keeps first.
	first := coo.ToCSR(func(a, b float64) float64 { return a })
	if v, _ := first.At(0, 0); v != 1 {
		t.Errorf("first combine: got %v, want 1", v)
	}
}

func TestCOOUnsortedInput(t *testing.T) {
	m := fromTriples(t, 3, 3, [][3]float64{{2, 1, 4}, {0, 2, 2}, {2, 0, 3}, {0, 0, 1}})
	want := small(t)
	if !Equal(m, want, value.Float64Equal) {
		t.Error("COO did not sort triples into canonical CSR")
	}
}

func TestMulKnownProduct(t *testing.T) {
	// [1 2] [5 6]   [1*5+2*7  1*6+2*8]   [19 22]
	// [3 4] [7 8] = [3*5+4*7  3*6+4*8] = [43 50]
	a := fromTriples(t, 2, 2, [][3]float64{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}})
	b := fromTriples(t, 2, 2, [][3]float64{{0, 0, 5}, {0, 1, 6}, {1, 0, 7}, {1, 1, 8}})
	c, err := mxm(a, b, semiring.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	d := c.ToDense(0)
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := Empty[float64](2, 3)
	b := Empty[float64](4, 2)
	for _, mul := range []func(x, y *CSR[float64], o semiring.Ops[float64]) (*CSR[float64], error){
		mxm[float64], MulMerge[float64], MulDense[float64],
	} {
		if _, err := mul(a, b, semiring.PlusTimes()); err == nil {
			t.Error("dimension mismatch accepted")
		}
	}
	if _, err := Mxm(a, b, semiring.PlusTimes(), MxmOptions{Workers: 4}); err == nil {
		t.Error("parallel Mxm accepted mismatch")
	}
}

func TestMulMinPlusShortestPath(t *testing.T) {
	// Two-hop distances: d2 = d ⊕.⊗ d under min.+.
	inf := value.PosInf
	_ = inf
	d := fromTriples(t, 3, 3, [][3]float64{
		{0, 1, 1}, {1, 2, 2}, {0, 2, 10},
	})
	ops := semiring.MinPlus()
	d2, err := mxm(d, d, ops)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := d2.At(0, 2); !ok || v != 3 {
		t.Errorf("two-hop 0→2 = %v,%v; want 3 (1+2 beats 10 only via relax)", v, ok)
	}
}

func TestMulProducesSortedColumns(t *testing.T) {
	a := randomCSR(rand.New(rand.NewSource(1)), 30, 40, 0.2)
	b := randomCSR(rand.New(rand.NewSource(2)), 40, 25, 0.2)
	for name, mul := range map[string]func(x, y *CSR[float64], o semiring.Ops[float64]) (*CSR[float64], error){
		"mxm": mxm[float64], "merge": MulMerge[float64],
		"mxm-par": func(x, y *CSR[float64], o semiring.Ops[float64]) (*CSR[float64], error) {
			return Mxm(x, y, o, MxmOptions{Workers: 3, FlopFloor: -1})
		},
	} {
		c, err := mul(a, b, semiring.PlusTimes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewCSR(c.rows, c.cols, c.rowPtr, c.colIdx, c.val); err != nil {
			t.Errorf("%s produced invalid CSR: %v", name, err)
		}
	}
}

// randomCSR generates a dense-ish random matrix with values in 1..9 so
// products cannot underflow to zero under +.*.
func randomCSR(r *rand.Rand, rows, cols int, density float64) *CSR[float64] {
	coo := NewCOO[float64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				coo.MustAppend(i, j, float64(1+r.Intn(9)))
			}
		}
	}
	return coo.ToCSR(nil)
}

// The engine under every scheduling, the merge reference and the dense
// Definition I.3 oracle must agree exactly on positive matrices,
// because +.* satisfies Theorem II.1.
func TestMulVariantsAgreeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		rows, inner, cols := 1+r.Intn(30), 1+r.Intn(30), 1+r.Intn(30)
		a := randomCSR(r, rows, inner, 0.15)
		b := randomCSR(r, inner, cols, 0.15)
		checkMxm(t, fmt.Sprintf("trial %d", trial), a, b, semiring.PlusTimes(), true)
	}
}

// The same agreement must hold for non-commutative ⊕ (first.*): this is
// what the ascending-k fold contract buys.
func TestMulVariantsAgreeNonCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ops := semiring.LeftmostNonzero()
	for trial := 0; trial < 20; trial++ {
		a := randomCSR(r, 20, 25, 0.2)
		b := randomCSR(r, 25, 15, 0.2)
		checkMxm(t, fmt.Sprintf("trial %d", trial), a, b, ops, true)
	}
}

// Under every Figure 3/5 operator pair, the engine agrees with the dense
// oracle on random non-negative matrices (these pairs satisfy
// Theorem II.1, so sparse == dense is exactly the theorem's content).
func TestMulSparseMatchesDenseForCompliantPairs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, ops := range semiring.Figure3Pairs() {
		a := randomCSR(r, 15, 12, 0.25)
		b := randomCSR(r, 12, 18, 0.25)
		s, err := mxm(a, b, ops)
		if err != nil {
			t.Fatal(err)
		}
		d, err := MulDense(a, b, ops)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(s, d, value.Float64Equal) {
			t.Errorf("%s: sparse and dense products differ", ops.Name)
		}
	}
}

// Under a NON-compliant algebra the sparse shortcut and the dense
// Definition I.3 product genuinely diverge — the converse face of the
// theorem at the kernel level. max.+@0: dense folds in 0⊗v = v terms
// that sparse skips.
func TestMulSparseDivergesFromDenseForNonCompliantPair(t *testing.T) {
	ops := semiring.MaxPlusAtZero()
	a := fromTriples(t, 1, 2, [][3]float64{{0, 0, 5}}) // row [5 0]
	b := fromTriples(t, 2, 1, [][3]float64{{1, 0, 7}}) // col [0 7]ᵀ
	s, err := mxm(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MulDense(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse: no overlapping k, so no entry. Dense: max(5⊗0, 0⊗7) =
	// max(5, 7) = 7 — a spurious "edge".
	if s.NNZ() != 0 {
		t.Errorf("sparse product should be empty, has %d entries", s.NNZ())
	}
	if v, ok := d.At(0, 0); !ok || v != 7 {
		t.Errorf("dense product = %v,%v; want spurious 7", v, ok)
	}
}

func TestMulEmptyOperands(t *testing.T) {
	a := Empty[float64](0, 0)
	c, err := mxm(a, a, semiring.PlusTimes())
	if err != nil || c.Rows() != 0 || c.Cols() != 0 {
		t.Errorf("0×0 product failed: %v", err)
	}
	b := Empty[float64](3, 4)
	d := Empty[float64](4, 2)
	c, err = mxm(b, d, semiring.PlusTimes())
	if err != nil || c.NNZ() != 0 || c.Rows() != 3 || c.Cols() != 2 {
		t.Errorf("empty product wrong: %v", err)
	}
	c, err = Mxm(b, d, semiring.PlusTimes(), MxmOptions{Workers: 4, FlopFloor: -1})
	if err != nil || c.NNZ() != 0 {
		t.Errorf("parallel empty product wrong: %v", err)
	}
	c, err = MulDense(b, d, semiring.PlusTimes())
	if err != nil || c.NNZ() != 0 {
		t.Errorf("dense empty product wrong: %v", err)
	}
}

func TestEWiseAdd(t *testing.T) {
	a := fromTriples(t, 2, 2, [][3]float64{{0, 0, 1}, {0, 1, 2}})
	b := fromTriples(t, 2, 2, [][3]float64{{0, 1, 3}, {1, 1, 4}})
	c, err := EWiseAdd(a, b, semiring.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	d := c.ToDense(0)
	want := [][]float64{{1, 5}, {0, 4}}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Errorf("add[%d][%d] = %v want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
	if _, err := EWiseAdd(a, Empty[float64](3, 3), semiring.PlusTimes()); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestEWiseMul(t *testing.T) {
	a := fromTriples(t, 2, 2, [][3]float64{{0, 0, 2}, {0, 1, 3}})
	b := fromTriples(t, 2, 2, [][3]float64{{0, 1, 4}, {1, 0, 5}})
	c, err := EWiseMul(a, b, semiring.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 1 {
		t.Fatalf("intersection nnz = %d", c.NNZ())
	}
	if v, _ := c.At(0, 1); v != 12 {
		t.Errorf("mul(0,1) = %v", v)
	}
	if _, err := EWiseMul(a, Empty[float64](1, 1), semiring.PlusTimes()); err == nil {
		t.Error("shape mismatch accepted")
	}
	var se *ShapeError
	_, err = EWiseMul(a, Empty[float64](1, 1), semiring.PlusTimes())
	if !asShapeError(err, &se) {
		t.Errorf("error should be *ShapeError, got %T", err)
	} else if se.Error() == "" {
		t.Error("empty error string")
	}
}

func asShapeError(err error, target **ShapeError) bool {
	if e, ok := err.(*ShapeError); ok {
		*target = e
		return true
	}
	return false
}

// EWiseAdd with a zero-sum-capable algebra prunes cancelled entries.
func TestEWiseAddPrunesCancellation(t *testing.T) {
	ring := semiring.PlusTimes().Rename("signed")
	a := fromTriples(t, 1, 1, [][3]float64{{0, 0, 5}})
	b := fromTriples(t, 1, 1, [][3]float64{{0, 0, -5}})
	c, err := EWiseAdd(a, b, ring)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 {
		t.Errorf("cancelled entry survived: nnz=%d", c.NNZ())
	}
}

// Union/intersection element-wise semantics over set values exercises
// the generic kernels with a non-numeric, slice-typed V.
func TestEWiseSetValues(t *testing.T) {
	ops := semiring.PowerSet(value.NewSet("a", "b", "c"))
	mk := func(entries map[[2]int]value.Set) *CSR[value.Set] {
		coo := NewCOO[value.Set](2, 2)
		for rc, s := range entries {
			coo.MustAppend(rc[0], rc[1], s)
		}
		return coo.ToCSR(nil)
	}
	a := mk(map[[2]int]value.Set{{0, 0}: value.NewSet("a"), {0, 1}: value.NewSet("a", "b")})
	b := mk(map[[2]int]value.Set{{0, 0}: value.NewSet("b"), {0, 1}: value.NewSet("b", "c")})
	u, err := EWiseAdd(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := u.At(0, 0); !v.Equal(value.NewSet("a", "b")) {
		t.Errorf("set union = %v", v)
	}
	x, err := EWiseMul(a, b, ops)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := x.At(0, 1); !v.Equal(value.NewSet("b")) {
		t.Errorf("set intersection = %v", v)
	}
	if _, ok := x.At(0, 0); ok {
		t.Error("disjoint intersection should be pruned as zero")
	}
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
