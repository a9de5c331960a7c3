package sparse

import (
	"errors"
	"fmt"
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

// randomCSRFor is randomCSRGrow with signed values, so folds can cancel.
func randomCSRFor(r *rand.Rand, rows, cols int, density float64) *CSR[float64] {
	coo := NewCOO[float64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				coo.MustAppend(i, j, float64(r.Intn(9)-4)) // includes zero-sum material
			}
		}
	}
	return coo.ToCSR(nil)
}

func csrEqual(t *testing.T, got, want *CSR[float64], label string) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: shape/nnz %dx%d/%d, want %dx%d/%d", label,
			got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	for i := 0; i < want.Rows(); i++ {
		gc, gv := got.Row(i)
		wc, wv := want.Row(i)
		if len(gc) != len(wc) {
			t.Fatalf("%s: row %d length %d, want %d", label, i, len(gc), len(wc))
		}
		for p := range wc {
			if gc[p] != wc[p] || gv[p] != wv[p] {
				t.Fatalf("%s: row %d entry %d = (%d,%v), want (%d,%v)",
					label, i, p, gc[p], gv[p], wc[p], wv[p])
			}
		}
	}
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
			want.MustAppend(int(rowPos[i]), int(colPos[j]), v)
		})
		if !Equal(got, want.ToCSR(nil), func(a, b float64) bool { return a == b }) {
			t.Fatalf("trial %d: scatter mismatch", trial)
		}
	}
}

// pickPositions draws a strictly increasing map [0,n) → [0,newN).
func pickPositions(r *rand.Rand, n, newN int) []int32 {
	pos := make([]int32, n)
	for i, p := range r.Perm(newN)[:n] {
		pos[i] = int32(p)
	}
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && pos[j-1] > pos[j]; j-- {
			pos[j-1], pos[j] = pos[j], pos[j-1]
		}
	}
	return pos
}

func TestEmbedRejectsBadPositions(t *testing.T) {
	m := randomCSRGrow(rand.New(rand.NewSource(3)), 3, 3, 0.5)
	if _, err := Embed(m, []int32{0, 1}, nil, 4, 3); err == nil {
		t.Error("short rowPos accepted")
	}
	if _, err := Embed(m, []int32{2, 1, 0}, nil, 4, 3); err == nil {
		t.Error("non-monotone rowPos accepted")
	}
	if _, err := Embed(m, []int32{0, 1, 5}, nil, 4, 3); err == nil {
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
		got, err := EWiseAddInto(dst.Clone(), src, ops, trial%2 == 0, nil, nil, nil)
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
	got, err := EWiseAddInto(d, s, ops, true, nil, nil, nil)
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
	got2, err := EWiseAddInto(d, src2.ToCSR(nil), ops, true, nil, nil, nil)
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
	if got3, _ := EWiseAddInto(d, Empty[float64](2, 4), ops, false, nil, nil, nil); got3 != d {
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
		got, err := EWiseAddInto(mk(), s, ops, inPlace, nil, nil, nil)
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

// growInto draws a result space for a rows×cols accumulator: new rows and
// columns before, between and after the old ones (or, one time in four
// per side, none — the nil map, with the side possibly still extended at
// its end).
func growInto(r *rand.Rand, rows, cols int) (rowPos, colPos []int32, newRows, newCols int) {
	side := func(n int) ([]int32, int) {
		grown := n + r.Intn(6)
		if r.Intn(4) == 0 {
			return nil, grown
		}
		return pickPositions(r, n, grown), grown
	}
	rowPos, newRows = side(rows)
	colPos, newCols = side(cols)
	return rowPos, colPos, newRows, newCols
}

// The merge that reads its accumulator through position maps against the
// two steps it replaces — embed the accumulator into the grown space,
// then merge — for every registered pair, with and without a recycled
// buffer, deltas that cancel stored values included.
func TestMappedMergeMatchesEmbedThenMerge(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, entry := range semiring.Registry() {
		ops := entry.Ops
		for trial := 0; trial < 40; trial++ {
			rows, cols := 1+r.Intn(12), 1+r.Intn(12)
			dst := randomCSRFor(r, rows, cols, 0.3)
			rowPos, colPos, newRows, newCols := growInto(r, rows, cols)
			src := randomCSRFor(r, newRows, newCols, 0.15)
			if trial%10 == 0 {
				src = Empty[float64](newRows, newCols)
			}
			embedded, err := Embed(dst, rowPos, colPos, newRows, newCols)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EWiseAddInto(embedded, src, ops, false, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s trial %d (%d×%d into %d×%d)", ops.Name, trial, rows, cols, newRows, newCols)
			got, err := EWiseAddInto(dst.Clone(), src, ops, trial%2 == 0, nil, rowPos, colPos)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			csrEqual(t, got, want, label)
			var scratch MergeScratch[float64]
			scratch.Recycle(randomCSRFor(r, newRows, newCols, 0.2))
			got, err = EWiseAddInto(dst.Clone(), src, ops, trial%2 == 0, &scratch, rowPos, colPos)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			csrEqual(t, got, want, label+" recycled buffer")
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

// Maps are checked like Embed's, and an accumulator that does not fit the
// result's space without one is a shape error.
func TestMappedMergeChecksItsMaps(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(29))
	dst, src := randomCSRFor(r, 3, 3, 0.5), randomCSRFor(r, 5, 4, 0.5)
	for name, maps := range map[string][2][]int32{
		"short rowPos":        {{0, 1}, nil},
		"non-monotone rowPos": {{2, 1, 0}, nil},
		"out-of-range colPos": {nil, {0, 1, 4}},
	} {
		if _, err := EWiseAddInto(dst, src, ops, false, nil, maps[0], maps[1]); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	var se *ShapeError
	if _, err := EWiseAddInto(src, dst, ops, false, nil, nil, nil); !errors.As(err, &se) {
		t.Errorf("an accumulator larger than the result: got %v, want a *ShapeError", err)
	}
}

// A merge that must allocate — nothing recycled, as when a snapshot still
// holds the previous result — allocates exactly; head-room is for a
// recycled buffer that proved too small, where a next merge will want it.
func TestMergeAllocatesExactlyUnlessRecycling(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(31))
	dst, src := randomCSRGrow(r, 30, 30, 0.2), randomCSRGrow(r, 30, 30, 0.2)
	var scratch MergeScratch[float64]
	got, err := EWiseAddInto(dst, src, ops, false, &scratch, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cap(got.colIdx) != len(got.colIdx) || cap(got.val) != len(got.val) {
		t.Errorf("empty scratch: %d entries in buffers of %d and %d", got.NNZ(), cap(got.colIdx), cap(got.val))
	}
	scratch.Recycle(randomCSRGrow(r, 30, 30, 0.01))
	got, err = EWiseAddInto(dst, src, ops, false, &scratch, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cap(got.colIdx) < got.NNZ()+got.NNZ()/2 || cap(got.val) < got.NNZ()+got.NNZ()/2 {
		t.Errorf("a recycled buffer that was too small was replaced without head-room: %d entries in %d and %d", got.NNZ(), cap(got.colIdx), cap(got.val))
	}
	// An accumulator handed over to be consumed is what the next merge
	// recycles, unless the result still is that accumulator.
	acc := dst.Clone()
	if next, err := EWiseAddInto(acc, src, ops, true, &scratch, nil, nil); err != nil || next == acc {
		t.Fatalf("a merge that adds cells ran in place (%v)", err)
	}
	if cap(scratch.val) == 0 || &scratch.val[:1][0] != &acc.val[0] {
		t.Error("the consumed accumulator's backing was not donated to the scratch")
	}
	if same, err := EWiseAddInto(acc, Empty[float64](30, 30), ops, true, &scratch, nil, nil); err != nil || same != acc {
		t.Fatalf("an empty delta did not return the accumulator itself (%v)", err)
	}
}
