package sparse

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"adjarray/internal/semiring"
)

// recovered runs f and returns what it panicked with, as an error.
func recovered(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err, _ = p.(error)
		}
	}()
	f()
	return nil
}

// Every assembler refuses a shape an int32 cannot index with the one
// ErrIndexRange — and does so from the dimensions alone, before it
// allocates anything of their size.
func TestDimensionsPastTheIndexRangeAreRefused(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot hold 2³¹ here")
	}
	big := math.MaxInt32
	big++
	ops := semiring.PlusTimes()
	small := Empty[float64](2, 2)
	for name, refuse := range map[string]func() error{
		"Empty columns": func() error { return recovered(func() { Empty[float64](1, big) }) },
		"Empty rows":    func() error { return recovered(func() { Empty[float64](big, 1) }) },
		"COO.ToCSR":     func() error { return recovered(func() { NewCOO[float64](1, big).ToCSR(nil) }) },
		"NewCSR rows": func() error {
			_, err := NewCSR[float64](big, 1, nil, nil, nil)
			return err
		},
		"NewCSR columns": func() error {
			_, err := NewCSR(1, big, []int32{0, 0}, nil, []float64{})
			return err
		},
		"FromDense": func() error {
			_, err := FromDense[float64](nil, big, ops.IsZero)
			return err
		},
		"FoldUnitRows columns": func() error {
			_, err := FoldUnitRows(1, big, nil, nil, []float64{}, nil, ops, MxmOptions{}, nil)
			return err
		},
		"FoldUnitRows rows": func() error {
			_, err := FoldUnitRows(big, 1, nil, nil, []float64{}, nil, ops, MxmOptions{}, &FoldScratch[float64]{})
			return err
		},
		"Embed": func() error {
			_, err := Embed(small, nil, nil, big, 2)
			return err
		},
		"ConcatRows": func() error {
			_, err := ConcatRows([]*CSR[float64]{small, small}, [][]int32{nil, nil}, [][]int32{nil, nil}, 2, big)
			return err
		},
	} {
		if err := refuse(); !errors.Is(err, ErrIndexRange) {
			t.Errorf("%s: %v, want an error wrapping ErrIndexRange", name, err)
		}
	}
	if err := checkIndexRange(math.MaxInt32, math.MaxInt32, math.MaxInt32); err != nil {
		t.Errorf("2³¹−1 itself is refused: %v", err)
	}
	if err := checkIndexRange(1, 1, big); !errors.Is(err, ErrIndexRange) {
		t.Errorf("2³¹ stored entries: %v", err)
	}
}

// A product whose symbolic bound passes 2³¹−1 entries is refused before
// the numeric phase allocates for it: a column times a row of 46,341
// entries each is 46,341² = 2,147,488,281 cells, from 92,682 stored ones.
func TestMxmRefusesAnOverflowingSymbolicBound(t *testing.T) {
	const n = 46_341
	ones := make([]float64, n)
	zeros := make([]int32, n)
	upTo := make([]int32, n+1)
	for i := range ones {
		ones[i], upTo[i+1] = 1, int32(i+1)
	}
	col, err := NewCSR(n, 1, upTo, zeros, ones)
	if err != nil {
		t.Fatal(err)
	}
	row, err := NewCSR(1, n, []int32{0, n}, upTo[:n], ones)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		if _, err := Mxm(nil, col, row, semiring.PlusTimes(), MxmOptions{Workers: workers, FlopFloor: -1}); !errors.Is(err, ErrIndexRange) {
			t.Errorf("workers %d: %v, want an error wrapping ErrIndexRange", workers, err)
		}
	}
	if err := prefixCounts([]int32{0, math.MaxInt32, 0, 1}); !errors.Is(err, ErrIndexRange) {
		t.Errorf("a bound of 2³¹: %v", err)
	}
	if ptr := []int32{0, math.MaxInt32 - 1, 0, 1}; prefixCounts(ptr) != nil || ptr[3] != math.MaxInt32 {
		t.Errorf("a bound of 2³¹−1 came back as %v", ptr)
	}
}

// heldBytes is what m's backing arrays occupy, by their capacities.
func heldBytes[V any](m *CSR[V]) int {
	rowPtr, colIdx, val := m.Parts()
	return 4*cap(rowPtr) + 4*cap(colIdx) + cap(val)*int(reflect.TypeOf((*V)(nil)).Elem().Size())
}

// The bytes of a stored entry, as plain arithmetic on what the kernels
// return: a CSR[float64] holds 12 B per entry and 4 B per row (+ 4),
// whichever kernel assembled it, and a pattern transpose 4 B per entry.
func TestBytesPerStoredEntry(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(5))
	const rows, cols = 300, 200
	// Distinct cells with non-zero sums, so no kernel folds or prunes one
	// away and ends below the bound it allocated.
	var row, col []int32
	var out []float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Intn(10) == 0 {
				row, col, out = append(row, int32(i)), append(col, int32(j)), append(out, float64(1+r.Intn(5)))
			}
		}
	}
	r.Shuffle(len(row), func(a, b int) {
		row[a], row[b], col[a], col[b], out[a], out[b] = row[b], row[a], col[b], col[a], out[b], out[a]
	})
	folded, err := FoldUnitRows(rows, cols, row, col, out, nil, ops, MxmOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var evens, odds []int32
	for i := int32(0); i < rows; i += 2 {
		evens, odds = append(evens, i), append(odds, i+1)
	}
	top, _ := folded.ExtractRows(evens)
	bottom, _ := folded.ExtractRows(odds)
	gathered, err := ConcatRows([]*CSR[float64]{top, bottom}, [][]int32{evens, odds}, [][]int32{nil, nil}, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := EWiseAddInto(folded, gathered, ops, false, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*CSR[float64]{"FoldUnitRows": folded, "ConcatRows": gathered, "EWiseAddInto": merged} {
		if m.NNZ() != len(row) {
			t.Fatalf("%s stores %d entries, want %d", name, m.NNZ(), len(row))
		}
		if got, want := heldBytes(m), 12*m.NNZ()+4*(rows+1); got != want {
			t.Errorf("%s holds %d B for %d entries in %d rows, want %d (12 per entry, 4 per row)", name, got, m.NNZ(), rows, want)
		}
	}
	pt := folded.Pattern().Transpose()
	if got, want := heldBytes(pt), 4*pt.NNZ()+4*(cols+1); got != want {
		t.Errorf("the pattern transpose holds %d B for %d entries in %d rows, want %d (4 per entry, 4 per row)", got, pt.NNZ(), cols, want)
	}
}

// A Pattern is the matrix's own index arrays; its transpose is the
// transpose's pattern, and TransposeOnto lays the values onto exactly
// those arrays — or refuses a pattern of another shape or row lengths.
func TestPatternTransposeAndTransposeOnto(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		m := randomCSRFor(r, 1+r.Intn(12), 1+r.Intn(12), 0.4)
		p := m.Pattern()
		if &p.rowPtr[0] != &m.rowPtr[0] || (m.NNZ() > 0 && &p.colIdx[0] != &m.colIdx[0]) {
			t.Fatal("Pattern copied the index arrays")
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		want := m.Transpose()
		pt := p.Transpose()
		if !SamePattern(pt, want) {
			t.Fatalf("trial %d: the pattern's transpose is not the transpose's pattern", trial)
		}
		got, err := m.TransposeOnto(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want, func(a, b float64) bool { return a == b }) {
			t.Fatalf("trial %d: TransposeOnto differs from Transpose", trial)
		}
		if &got.rowPtr[0] != &pt.rowPtr[0] || (m.NNZ() > 0 && &got.colIdx[0] != &pt.colIdx[0]) {
			t.Fatal("TransposeOnto copied the pattern's index arrays")
		}
	}
	m, err := NewCSR(2, 3, []int32{0, 2, 3}, []int32{0, 2, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	lengths, err := NewCSR(3, 2, []int32{0, 2, 2, 3}, []int32{0, 1, 0}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, wrong := range map[string]*Pattern{
		"another shape":     Empty[float64](3, 3).Pattern(),
		"too few entries":   Empty[float64](3, 2).Pattern(),
		"its own, not Aᵀ's": m.Pattern(),
		"other row lengths": lengths.Pattern(),
	} {
		if _, err := m.TransposeOnto(wrong); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func BenchmarkTransposePattern(b *testing.B) {
	eout, ein := rmatUnitRows(b, 14, 8)
	adj, err := FoldUnitRows(eout.cols, ein.cols, eout.colIdx, ein.colIdx, eout.val, ein.val, semiring.PlusTimes(), MxmOptions{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("valued", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adj.Transpose()
		}
	})
	b.Run("pattern", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adj.Pattern().Transpose()
		}
	})
	b.Run("pattern+values", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := adj.TransposeOnto(adj.Pattern().Transpose()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
