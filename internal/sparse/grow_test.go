package sparse

import (
	"fmt"
	"math/rand"
	"strings"
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

// foldInto is a view's fold: the gather of dst alone, continued by src's
// runs, dst read through rowPos and colPos into src's space.
func foldInto(dst, src *CSR[float64], ops semiring.Ops[float64], rowPos, colPos []int32) (*CSR[float64], error) {
	g := Gather[float64]{
		Parts: []*CSR[float64]{dst}, RowPos: [][]int32{rowPos}, ColPos: [][]int32{colPos},
		Deltas: []*CSR[float64]{src}, Ops: ops, Rows: src.rows, Cols: src.cols,
	}
	return g.Matrix()
}

// A delta without runs continues its part as EWiseAdd adds them, and the
// part is left as it was: a gather never writes what it reads.
func TestGatherFoldMatchesEWiseAdd(t *testing.T) {
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
		before := dst.Clone()
		got, err := foldInto(dst, src, ops, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want, func(a, b float64) bool { return a == b }) {
			t.Fatalf("trial %d: fold mismatch", trial)
		}
		if !Equal(dst, before, func(a, b float64) bool { return a == b }) {
			t.Fatalf("trial %d: the gather wrote its part", trial)
		}
	}
}

func TestGatherFoldPrunesZeroFolds(t *testing.T) {
	// Signed +.* : 2 ⊕ −2 folds to zero and must be pruned.
	ops := semiring.PlusTimes()
	dst := NewCOO[float64](1, 3)
	dst.MustAppend(0, 0, 2)
	dst.MustAppend(0, 2, 1)
	src := NewCOO[float64](1, 3)
	src.MustAppend(0, 0, -2)
	got, err := foldInto(dst.ToCSR(nil), src.ToCSR(nil), ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 1 {
		t.Errorf("zero fold kept, nnz=%d", got.NNZ())
	}
	if _, ok := got.At(0, 0); ok {
		t.Error("pruned entry still present")
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

// The mapped merge, a fold that reads its part through position maps,
// against the two steps it replaces — embed the part into the grown
// space, then fold — for every registered pair, deltas that cancel stored
// values included.
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
			want, err := foldInto(embedded, src, ops, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s trial %d (%d×%d into %d×%d)", ops.Name, trial, rows, cols, newRows, newCols)
			got, err := foldInto(dst, src, ops, rowPos, colPos)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			csrEqual(t, got, want, label)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

// Maps are checked like Embed's, and a part that does not fit the
// result's space without one is refused, the error naming the Gather.
func TestMappedMergeChecksItsMaps(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(29))
	dst, src := randomCSRFor(r, 3, 3, 0.5), randomCSRFor(r, 5, 4, 0.5)
	for name, maps := range map[string][2][]int32{
		"short rowPos":        {{0, 1}, nil},
		"non-monotone rowPos": {{2, 1, 0}, nil},
		"out-of-range colPos": {nil, {0, 1, 4}},
	} {
		if _, err := foldInto(dst, src, ops, maps[0], maps[1]); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := foldInto(src, dst, ops, nil, nil); err == nil || !strings.Contains(err.Error(), "sparse: Gather part 0") {
		t.Errorf("a part larger than the result: got %v, want the Gather's refusal of part 0", err)
	}
}

// A fold's result is sized by the union count: with no cell folding to
// Zero, its buffers hold exactly its entries, whether the part moves or
// not.
func TestGatherAllocatesExactly(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		dst := randomCSRGrow(r, 30, 30, 0.2)
		rowPos, colPos, newRows, newCols := growInto(r, 30, 30)
		src := randomCSRGrow(r, newRows, newCols, 0.2)
		got, err := foldInto(dst, src, ops, rowPos, colPos)
		if err != nil {
			t.Fatal(err)
		}
		if cap(got.colIdx) != len(got.colIdx) || cap(got.val) != len(got.val) {
			t.Errorf("trial %d: %d entries in buffers of %d and %d", trial, got.NNZ(), cap(got.colIdx), cap(got.val))
		}
	}
}
