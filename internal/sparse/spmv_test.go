package sparse

import (
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
)

// randomVecMat draws a sparse 1×R vector (as ids+vals) and an R×C matrix.
func randomVecMat(r *rand.Rand, R, C int, vals []float64) ([]int32, []float64, *CSR[float64]) {
	var ids []int32
	var xv []float64
	for i := 0; i < R; i++ {
		if r.Intn(3) == 0 {
			ids = append(ids, int32(i))
			xv = append(xv, vals[r.Intn(len(vals))])
		}
	}
	coo := NewCOO[float64](R, C)
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			if r.Intn(4) == 0 {
				coo.MustAppend(i, j, vals[r.Intn(len(vals))])
			}
		}
	}
	return ids, xv, coo.ToCSR(nil)
}

// vecCSR wraps the sparse vector as a 1×R CSR for the SpGEMM reference.
func vecCSR(R int, ids []int32, vals []float64) *CSR[float64] {
	m, err := NewCSR(1, R, []int32{0, int32(len(ids))}, append([]int32(nil), ids...), append([]float64(nil), vals...))
	if err != nil {
		panic(err)
	}
	return m
}

// Push must agree with the two-phase SpGEMM engine on y = x ⊕.⊗ m,
// including for an order-sensitive ⊕ (the fold runs in ascending
// shared-id order in both).
func TestSpMSpVMatchesSpGEMM(t *testing.T) {
	orderSensitive := semiring.Ops[float64]{
		Name: "ordercheck",
		Add:  func(a, b float64) float64 { return a + b/2 },
		Mul:  func(a, b float64) float64 { return a + b },
		Zero: 0, One: 0,
		Equal: func(a, b float64) bool { return a == b },
	}
	r := rand.New(rand.NewSource(11))
	for _, ops := range []semiring.Ops[float64]{semiring.PlusTimes(), semiring.MinPlus(), semiring.MaxMin(), orderSensitive} {
		for trial := 0; trial < 20; trial++ {
			R, C := 1+r.Intn(20), 1+r.Intn(20)
			ids, xv, m := randomVecMat(r, R, C, []float64{0.5, 1, 2, 3, 7})
			want, err := mxm(vecCSR(R, ids, xv), m, ops)
			if err != nil {
				t.Fatal(err)
			}

			acc := make([]float64, C)
			hit := make([]bool, C)
			got := map[int32]float64{}
			for _, j := range SpMSpVPush(m, ids, xv, ops.Add, ops.Mul, acc, hit, nil) {
				if !ops.IsZero(acc[j]) { // the engine prunes Zero folds; kernels leave it to callers
					got[j] = acc[j]
				}
			}
			wc, wv := want.Row(0)
			if len(got) != len(wc) {
				t.Fatalf("%s trial %d: nnz %d, want %d", ops.Name, trial, len(got), len(wc))
			}
			for p, j := range wc {
				if gv, ok := got[j]; !ok || !ops.Equal(gv, wv[p]) {
					t.Fatalf("%s trial %d: y[%d] = %v, want %v", ops.Name, trial, j, gv, wv[p])
				}
			}
		}
	}
}
