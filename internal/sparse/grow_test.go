package sparse

import (
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
)

func randomCSRGrow(r *rand.Rand, rows, cols int, density float64) *CSR[float64] {
	coo := NewCOO[float64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				coo.MustAppend(i, j, float64(r.Intn(9)+1))
			}
		}
	}
	return coo.ToCSR(nil)
}

func TestEmbedIdentitySharing(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := randomCSRGrow(r, 5, 7, 0.3)
	// Pure widening: same rows, more cols — shares everything.
	w, err := Embed(m, nil, nil, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if w.Rows() != 5 || w.Cols() != 12 || w.NNZ() != m.NNZ() {
		t.Fatalf("widen: %d×%d nnz %d", w.Rows(), w.Cols(), w.NNZ())
	}
	m.Iterate(func(i, j int, v float64) {
		if got, ok := w.At(i, j); !ok || got != v {
			t.Fatalf("widen lost (%d,%d)", i, j)
		}
	})
	// Row extension: new trailing empty rows.
	e, err := Embed(m, nil, nil, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rows() != 9 || e.RowNNZ(8) != 0 || e.NNZ() != m.NNZ() {
		t.Fatalf("extend: rows %d nnz %d", e.Rows(), e.NNZ())
	}
}

func TestEmbedScatterMatchesManual(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := randomCSRGrow(r, rows, cols, 0.4)
		newRows, newCols := rows+r.Intn(5), cols+r.Intn(5)
		rowPos := pickPositions(r, rows, newRows)
		colPos := pickPositions(r, cols, newCols)
		got, err := Embed(m, rowPos, colPos, newRows, newCols)
		if err != nil {
			t.Fatal(err)
		}
		want := NewCOO[float64](newRows, newCols)
		m.Iterate(func(i, j int, v float64) {
			want.MustAppend(rowPos[i], colPos[j], v)
		})
		if !Equal(got, want.ToCSR(nil), func(a, b float64) bool { return a == b }) {
			t.Fatalf("trial %d: scatter mismatch", trial)
		}
	}
}

// pickPositions draws a strictly increasing map [0,n) → [0,newN).
func pickPositions(r *rand.Rand, n, newN int) []int {
	perm := r.Perm(newN)[:n]
	pos := append([]int(nil), perm...)
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && pos[j-1] > pos[j]; j-- {
			pos[j-1], pos[j] = pos[j], pos[j-1]
		}
	}
	return pos
}

func TestEmbedRejectsBadPositions(t *testing.T) {
	m := randomCSRGrow(rand.New(rand.NewSource(3)), 3, 3, 0.5)
	if _, err := Embed(m, []int{0, 1}, nil, 4, 3); err == nil {
		t.Error("short rowPos accepted")
	}
	if _, err := Embed(m, []int{2, 1, 0}, nil, 4, 3); err == nil {
		t.Error("non-monotone rowPos accepted")
	}
	if _, err := Embed(m, []int{0, 1, 5}, nil, 4, 3); err == nil {
		t.Error("out-of-range rowPos accepted")
	}
	if _, err := Embed(m, nil, nil, 2, 3); err == nil {
		t.Error("row shrink accepted")
	}
}

func TestEWiseAddIntoMatchesEWiseAdd(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		dst := randomCSRGrow(r, rows, cols, 0.3)
		src := randomCSRGrow(r, rows, cols, 0.2)
		want, err := EWiseAdd(dst, src, ops)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EWiseAddInto(dst.Clone(), src, ops, trial%2 == 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want, func(a, b float64) bool { return a == b }) {
			t.Fatalf("trial %d: merge mismatch", trial)
		}
	}
}

func TestEWiseAddIntoInPlaceSubset(t *testing.T) {
	ops := semiring.PlusTimes()
	// src pattern ⊆ dst pattern → in-place fold returns dst itself.
	dst := NewCOO[float64](2, 4)
	dst.MustAppend(0, 1, 1)
	dst.MustAppend(0, 3, 2)
	dst.MustAppend(1, 0, 3)
	d := dst.ToCSR(nil)
	src := NewCOO[float64](2, 4)
	src.MustAppend(0, 3, 10)
	s := src.ToCSR(nil)
	got, err := EWiseAddInto(d, s, ops, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Error("subset in-place merge should return dst")
	}
	if v, _ := got.At(0, 3); v != 12 {
		t.Errorf("fold = %v", v)
	}
	// Non-subset src must leave dst untouched even with inPlace.
	src2 := NewCOO[float64](2, 4)
	src2.MustAppend(1, 2, 5)
	before := d.Clone()
	got2, err := EWiseAddInto(d, src2.ToCSR(nil), ops, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got2 == d {
		t.Error("non-subset merge must allocate")
	}
	if !Equal(d, before, func(a, b float64) bool { return a == b }) {
		t.Error("dst mutated on the allocating path")
	}
	// Empty src returns dst unchanged.
	if got3, _ := EWiseAddInto(d, Empty[float64](2, 4), ops, false, nil); got3 != d {
		t.Error("empty src should return dst")
	}
}

func TestEWiseAddIntoPrunesZeroFolds(t *testing.T) {
	// Signed +.* : 2 ⊕ −2 folds to zero and must be pruned on both paths.
	ops := semiring.PlusTimes()
	mk := func() *CSR[float64] {
		c := NewCOO[float64](1, 3)
		c.MustAppend(0, 0, 2)
		c.MustAppend(0, 2, 1)
		return c.ToCSR(nil)
	}
	src := NewCOO[float64](1, 3)
	src.MustAppend(0, 0, -2)
	s := src.ToCSR(nil)
	for _, inPlace := range []bool{false, true} {
		got, err := EWiseAddInto(mk(), s, ops, inPlace, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != 1 {
			t.Errorf("inPlace=%v: zero fold kept, nnz=%d", inPlace, got.NNZ())
		}
		if _, ok := got.At(0, 0); ok {
			t.Errorf("inPlace=%v: pruned entry still present", inPlace)
		}
	}
}
