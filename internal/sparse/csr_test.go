package sparse

import (
	"testing"

	"adjarray/internal/value"
)

// small builds the running-example matrix
//
//	[ 1 0 2 ]
//	[ 0 0 0 ]
//	[ 3 4 0 ]
func small(t *testing.T) *CSR[float64] {
	t.Helper()
	m, err := NewCSR(3, 3, []int32{0, 2, 2, 4}, []int32{0, 2, 0, 1}, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Empty returns an all-zero rows×cols matrix.
func Empty[V any](rows, cols int) *CSR[V] {
	return &CSR[V]{rows: rows, cols: cols, rowPtr: make([]int32, rows+1)}
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name         string
		rows, cols   int
		rowPtr, cidx []int32
		vals         []float64
	}{
		{"negative dims", -1, 3, []int32{0}, nil, nil},
		{"short rowPtr", 2, 2, []int32{0, 0}, nil, nil},
		{"rowPtr not starting at 0", 1, 1, []int32{1, 1}, nil, nil},
		{"nnz mismatch", 1, 2, []int32{0, 2}, []int32{0}, []float64{1}},
		{"val mismatch", 1, 2, []int32{0, 1}, []int32{0}, []float64{1, 2}},
		{"non-monotone rowPtr", 2, 2, []int32{0, 2, 1}, []int32{0, 1}, []float64{1, 2}},
		{"col out of range", 1, 2, []int32{0, 1}, []int32{2}, []float64{1}},
		{"negative col", 1, 2, []int32{0, 1}, []int32{-1}, []float64{1}},
		{"duplicate col", 1, 3, []int32{0, 2}, []int32{1, 1}, []float64{1, 2}},
		{"decreasing cols", 1, 3, []int32{0, 2}, []int32{2, 0}, []float64{1, 2}},
	}
	for _, c := range cases {
		if _, err := NewCSR(c.rows, c.cols, c.rowPtr, c.cidx, c.vals); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewCSR(3, 3, []int32{0, 2, 2, 4}, []int32{0, 2, 0, 1}, []float64{1, 2, 3, 4}); err != nil {
		t.Errorf("valid CSR rejected: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	m := small(t)
	if m.Rows() != 3 || m.Cols() != 3 || m.NNZ() != 4 {
		t.Fatalf("dims/nnz: %d×%d nnz=%d", m.Rows(), m.Cols(), m.NNZ())
	}
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 || m.RowNNZ(2) != 2 {
		t.Error("RowNNZ wrong")
	}
	if v, ok := m.At(0, 2); !ok || v != 2 {
		t.Errorf("At(0,2) = %v,%v", v, ok)
	}
	if _, ok := m.At(0, 1); ok {
		t.Error("At(0,1) should be absent")
	}
	if _, ok := m.At(-1, 0); ok {
		t.Error("out-of-range At should be absent")
	}
	if _, ok := m.At(0, 99); ok {
		t.Error("out-of-range At should be absent")
	}
	cols, vals := m.Row(2)
	if len(cols) != 2 || cols[0] != 0 || vals[1] != 4 {
		t.Errorf("Row(2) = %v %v", cols, vals)
	}
}

func TestEmpty(t *testing.T) {
	m := Empty[float64](2, 5)
	if m.Rows() != 2 || m.Cols() != 5 || m.NNZ() != 0 {
		t.Error("Empty wrong shape")
	}
	tr := m.Transpose()
	if tr.Rows() != 5 || tr.Cols() != 2 || tr.NNZ() != 0 {
		t.Error("transpose of empty wrong")
	}
}

func TestIterateOrder(t *testing.T) {
	m := small(t)
	var got [][3]float64
	m.Iterate(func(i, j int, v float64) {
		got = append(got, [3]float64{float64(i), float64(j), v})
	})
	want := [][3]float64{{0, 0, 1}, {0, 2, 2}, {2, 0, 3}, {2, 1, 4}}
	if len(got) != len(want) {
		t.Fatalf("Iterate visited %d entries", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := small(t)
	c := m.Clone()
	c.val[0] = 99
	if v, _ := m.At(0, 0); v != 1 {
		t.Error("Clone shares storage")
	}
	if !Equal(m, small(t), value.Float64Equal) {
		t.Error("original mutated")
	}
}

func TestMapPreservesPattern(t *testing.T) {
	m := small(t)
	dbl := m.Map(func(i, j int, v float64) float64 { return 2 * v })
	if !SamePattern(m, dbl) {
		t.Error("Map changed the pattern")
	}
	if v, _ := dbl.At(2, 1); v != 8 {
		t.Errorf("Map value = %v", v)
	}
}

func TestPrune(t *testing.T) {
	m := small(t).Map(func(i, j int, v float64) float64 {
		if v == 2 {
			return 0
		}
		return v
	})
	p := m.Prune(func(v float64) bool { return v == 0 })
	if p.NNZ() != 3 {
		t.Errorf("Prune kept %d entries", p.NNZ())
	}
	if _, ok := p.At(0, 2); ok {
		t.Error("pruned entry still present")
	}
	if v, ok := p.At(2, 1); !ok || v != 4 {
		t.Error("surviving entry lost")
	}
}

func TestTranspose(t *testing.T) {
	m := small(t)
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 3 {
		t.Fatal("transpose shape")
	}
	m.Iterate(func(i, j int, v float64) {
		if got, ok := tr.At(j, i); !ok || got != v {
			t.Errorf("Tᵀ(%d,%d) = %v,%v want %v", j, i, got, ok, v)
		}
	})
	if tr.NNZ() != m.NNZ() {
		t.Error("transpose changed nnz")
	}
	back := tr.Transpose()
	if !Equal(m, back, value.Float64Equal) {
		t.Error("double transpose is not identity")
	}
}

func TestExtractRows(t *testing.T) {
	m := small(t)
	sub, err := m.ExtractRows([]int32{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows() != 2 || sub.Cols() != 3 || sub.NNZ() != 4 {
		t.Fatal("ExtractRows shape")
	}
	if v, _ := sub.At(0, 1); v != 4 {
		t.Errorf("row order not honored: %v", v)
	}
	if v, _ := sub.At(1, 0); v != 1 {
		t.Errorf("second row wrong: %v", v)
	}
	if _, err := m.ExtractRows([]int32{5}); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestExtractCols(t *testing.T) {
	m := small(t)
	sub, err := m.ExtractCols([]int32{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows() != 3 || sub.Cols() != 2 {
		t.Fatal("ExtractCols shape")
	}
	if v, ok := sub.At(0, 1); !ok || v != 2 {
		t.Errorf("column remap wrong: %v %v", v, ok)
	}
	if _, ok := sub.At(2, 1); ok {
		t.Error("dropped column leaked through")
	}
	if _, err := m.ExtractCols([]int32{2, 0}); err == nil {
		t.Error("unsorted column indices accepted")
	}
	if _, err := m.ExtractCols([]int32{9}); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestEqualAndSamePattern(t *testing.T) {
	m := small(t)
	if !Equal(m, m.Clone(), value.Float64Equal) {
		t.Error("clone not Equal")
	}
	changed := m.Map(func(i, j int, v float64) float64 { return v + 1 })
	if Equal(m, changed, value.Float64Equal) {
		t.Error("different values compared Equal")
	}
	if !SamePattern(m, changed) {
		t.Error("Map should preserve pattern")
	}
	if SamePattern(m, Empty[float64](3, 3)) {
		t.Error("different patterns compared same")
	}
	if Equal(m, Empty[float64](3, 3), value.Float64Equal) {
		t.Error("empty compared Equal")
	}
	if Equal(m, Empty[float64](2, 3), value.Float64Equal) {
		t.Error("different shapes compared Equal")
	}
}

func TestToDense(t *testing.T) {
	m := small(t)
	d := m.ToDense(0)
	want := [][]float64{{1, 0, 2}, {0, 0, 0}, {3, 4, 0}}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Errorf("dense[%d][%d] = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
	// Custom zero element (tropical −Inf).
	d2 := m.ToDense(value.NegInf)
	if d2[1][1] != value.NegInf {
		t.Error("custom zero not used")
	}
}
