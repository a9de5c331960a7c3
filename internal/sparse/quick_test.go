package sparse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// quick_test.go — property-based tests of the structural kernel
// invariants, driven by testing/quick over randomly generated matrices.

// genMatrix is a quick.Generator-compatible random CSR wrapper.
type genMatrix struct {
	m *CSR[float64]
}

// Generate implements quick.Generator: random shape up to 24×24 with
// random density and values 1..9.
func (genMatrix) Generate(r *rand.Rand, size int) reflect.Value {
	rows := 1 + r.Intn(24)
	cols := 1 + r.Intn(24)
	density := r.Float64() * 0.4
	return reflect.ValueOf(genMatrix{m: randomCSR(r, rows, cols, density)})
}

var quickCfg = &quick.Config{MaxCount: 60}

// Transpose is an involution.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(g genMatrix) bool {
		return Equal(g.m, g.m.Transpose().Transpose(), value.Float64Equal)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Transpose preserves nnz and flips every coordinate.
func TestQuickTransposeCoordinates(t *testing.T) {
	f := func(g genMatrix) bool {
		tr := g.m.Transpose()
		if tr.NNZ() != g.m.NNZ() {
			return false
		}
		ok := true
		g.m.Iterate(func(i, j int, v float64) {
			got, present := tr.At(j, i)
			if !present || got != v {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// The dense form is lossless: every cell is the stored entry or zero.
func TestQuickDenseRoundTrip(t *testing.T) {
	f := func(g genMatrix) bool {
		d := g.m.ToDense(0)
		for i := range d {
			for j, v := range d[i] {
				if want, _ := g.m.At(i, j); v != want {
					return false
				}
			}
		}
		return len(d) == g.m.Rows()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// EWiseAdd under +.* is commutative (because + is).
func TestQuickEWiseAddCommutative(t *testing.T) {
	f := func(g genMatrix, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		other := randomCSR(r, g.m.Rows(), g.m.Cols(), 0.3)
		ops := semiring.PlusTimes()
		ab, err1 := EWiseAdd(g.m, other, ops)
		ba, err2 := EWiseAdd(other, g.m, ops)
		return err1 == nil && err2 == nil && Equal(ab, ba, value.Float64Equal)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// EWiseAdd with an empty matrix is the identity; EWiseMul annihilates.
func TestQuickEWiseIdentityAnnihilator(t *testing.T) {
	f := func(g genMatrix) bool {
		empty := Empty[float64](g.m.Rows(), g.m.Cols())
		ops := semiring.PlusTimes()
		sum, err1 := EWiseAdd(g.m, empty, ops)
		prod, err2 := EWiseMul(g.m, empty, ops)
		return err1 == nil && err2 == nil &&
			Equal(sum, g.m, value.Float64Equal) && prod.NNZ() == 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Matrix multiplication under +.* is associative (since +.* is a true
// semiring): (AB)C == A(BC).
func TestQuickMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomCSR(r, 1+r.Intn(10), 1+r.Intn(10), 0.3)
		b := randomCSR(r, a.Cols(), 1+r.Intn(10), 0.3)
		c := randomCSR(r, b.Cols(), 1+r.Intn(10), 0.3)
		ops := semiring.PlusTimes()
		ab, _ := mxm(a, b, ops)
		abc1, _ := mxm(ab, c, ops)
		bc, _ := mxm(b, c, ops)
		abc2, _ := mxm(a, bc, ops)
		return Equal(abc1, abc2, value.Float64Equal)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// (AB)ᵀ == BᵀAᵀ under commutative ⊗ (+.*).
func TestQuickTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomCSR(r, 1+r.Intn(12), 1+r.Intn(12), 0.3)
		b := randomCSR(r, a.Cols(), 1+r.Intn(12), 0.3)
		ops := semiring.PlusTimes()
		ab, _ := mxm(a, b, ops)
		btat, _ := mxm(b.Transpose(), a.Transpose(), ops)
		return Equal(ab.Transpose(), btat, value.Float64Equal)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Mul distributes over EWiseAdd under +.*: A(B ⊕ C) == AB ⊕ AC.
func TestQuickMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomCSR(r, 1+r.Intn(10), 1+r.Intn(10), 0.3)
		b := randomCSR(r, a.Cols(), 1+r.Intn(10), 0.3)
		c := randomCSR(r, b.Rows(), b.Cols(), 0.3)
		ops := semiring.PlusTimes()
		bc, _ := EWiseAdd(b, c, ops)
		left, _ := mxm(a, bc, ops)
		ab, _ := mxm(a, b, ops)
		ac, _ := mxm(a, c, ops)
		right, _ := EWiseAdd(ab, ac, ops)
		return Equal(left, right, value.Float64Equal)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Masked multiply is always a sub-pattern of the mask and of the full
// product.
func TestQuickMaskedSubPattern(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomCSR(r, 1+r.Intn(12), 1+r.Intn(12), 0.3)
		b := randomCSR(r, a.Cols(), 1+r.Intn(12), 0.3)
		mask := randomCSR(r, a.Rows(), b.Cols(), 0.4)
		ops := semiring.PlusTimes()
		got, err := Mxm(mask.Pattern(), a, b, ops, MxmOptions{})
		if err != nil {
			return false
		}
		full, _ := mxm(a, b, ops)
		ok := true
		got.Iterate(func(i, j int, v float64) {
			if _, inMask := mask.At(i, j); !inMask {
				ok = false
			}
			if fv, inFull := full.At(i, j); !inFull || fv != v {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Prune then pattern-check: pruning explicit zeros never grows nnz and
// removes exactly the zero entries.
func TestQuickPrune(t *testing.T) {
	f := func(g genMatrix, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Zero out ~30% of entries.
		m := g.m.Map(func(i, j int, v float64) float64 {
			if r.Float64() < 0.3 {
				return 0
			}
			return v
		})
		p := m.Prune(func(v float64) bool { return v == 0 })
		zeros := 0
		m.Iterate(func(i, j int, v float64) {
			if v == 0 {
				zeros++
			}
		})
		return p.NNZ() == m.NNZ()-zeros
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// ExtractRows of all rows is the identity; ExtractCols of all columns is
// the identity.
func TestQuickExtractIdentity(t *testing.T) {
	f := func(g genMatrix) bool {
		rows := make([]int32, g.m.Rows())
		for i := range rows {
			rows[i] = int32(i)
		}
		cols := make([]int32, g.m.Cols())
		for j := range cols {
			cols[j] = int32(j)
		}
		er, err1 := g.m.ExtractRows(rows)
		ec, err2 := g.m.ExtractCols(cols)
		return err1 == nil && err2 == nil &&
			Equal(er, g.m, value.Float64Equal) && Equal(ec, g.m, value.Float64Equal)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
