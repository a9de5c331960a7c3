package sparse

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adjarray/internal/semiring"
)

// disjointParts deals the rows of a random rows×cols matrix out to k
// parts — some rows to nobody — and gives every part its own smaller
// coordinate space: only the rows it was dealt and a random subset of the
// columns that covers what it stores. It returns the parts with their
// position maps back into rows×cols; identity maps come back nil some of
// the time, the way a key-set union reports them.
func disjointParts(r *rand.Rand, rows, cols, k int) (parts []*CSR[float64], rowPos, colPos [][]int32) {
	full := randomCSRFor(r, rows, cols, 0.3)
	owner := make([]int, rows)
	for i := range owner {
		owner[i] = r.Intn(k+1) - 1 // -1: nobody's
	}
	for p := 0; p < k; p++ {
		var rp, cp []int32
		keep := make([]bool, cols)
		for i := 0; i < rows; i++ {
			if owner[i] != p {
				continue
			}
			rp = append(rp, int32(i))
			cs, _ := full.Row(i)
			for _, j := range cs {
				keep[j] = true
			}
		}
		remap := make([]int, cols)
		for j := range keep {
			if keep[j] || r.Intn(3) == 0 {
				remap[j] = len(cp)
				cp = append(cp, int32(j))
			}
		}
		coo := NewCOO[float64](len(rp), len(cp))
		for li, i := range rp {
			cs, vs := full.Row(int(i))
			for q, j := range cs {
				coo.MustAppend(li, remap[j], vs[q])
			}
		}
		if len(cp) == cols && r.Intn(2) == 0 {
			cp = nil
		}
		parts, rowPos, colPos = append(parts, coo.ToCSR(nil)), append(rowPos, rp), append(colPos, cp)
	}
	return parts, rowPos, colPos
}

// The concatenation against the gather it replaces: embed every part
// into the result's space and ⊕ them together. Rows are disjoint, so no
// ⊕ ever combines two values and the two agree entry for entry.
func TestConcatRowsMatchesEmbedThenAdd(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ops := semiring.PlusTimes()
	for trial := 0; trial < 200; trial++ {
		rows, cols, k := 1+r.Intn(14), 1+r.Intn(10), 2+r.Intn(4)
		parts, rowPos, colPos := disjointParts(r, rows, cols, k)
		got, err := ConcatRows(parts, rowPos, colPos, rows, cols)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := Empty[float64](rows, cols)
		for p := range parts {
			e, err := Embed(parts[p], rowPos[p], colPos[p], rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = EWiseAdd(want, e, ops); err != nil {
				t.Fatal(err)
			}
		}
		csrEqual(t, got, want, fmt.Sprintf("trial %d (%d parts)", trial, k))
		if cap(got.colIdx) != len(got.colIdx) || cap(got.val) != len(got.val) {
			t.Fatalf("trial %d: result is not exact-size: %d/%d entries of %d/%d", trial, len(got.colIdx), len(got.val), cap(got.colIdx), cap(got.val))
		}
	}
}

// The hypothesis is checked: a row two parts both store is refused, the
// error saying which row and which parts; a part's EMPTY row claims
// nothing.
func TestConcatRowsRefusesARowStoredTwice(t *testing.T) {
	mk := func(rows int, entries ...[2]int) *CSR[float64] {
		coo := NewCOO[float64](rows, 4)
		for _, e := range entries {
			coo.MustAppend(e[0], e[1], 1)
		}
		return coo.ToCSR(nil)
	}
	a := mk(2, [2]int{0, 1}, [2]int{1, 2})               // its rows land at 1 and 4
	b := mk(3, [2]int{0, 0}, [2]int{2, 3})               // at 0, 4 (empty) and 5
	c := mk(2, [2]int{0, 3}, [2]int{1, 0}, [2]int{1, 1}) // at 2 and 4: the conflict with a
	rowPos := [][]int32{{1, 4}, {0, 4, 5}, {2, 4}}
	none := [][]int32{nil, nil, nil}
	if _, err := ConcatRows([]*CSR[float64]{a, b}, rowPos[:2], none[:2], 6, 4); err != nil {
		t.Fatalf("an empty row over a stored one: %v", err)
	}
	_, err := ConcatRows([]*CSR[float64]{a, b, c}, rowPos, none, 6, 4)
	var rc *RowConflictError
	if !errors.As(err, &rc) || *rc != (RowConflictError{Row: 4, First: 0, Second: 2}) {
		t.Fatalf("row 4 stored by parts 0 and 2: got %v", err)
	}
	if !strings.Contains(err.Error(), "row 4") {
		t.Errorf("the refusal does not name the row: %v", err)
	}
	// With identity maps the parts' own row numbers are the result's.
	_, err = ConcatRows([]*CSR[float64]{b, a}, [][]int32{nil, nil}, none[:2], 3, 4)
	if !errors.As(err, &rc) || *rc != (RowConflictError{Row: 0, First: 0, Second: 1}) {
		t.Fatalf("row 0 stored by both parts under identity maps: got %v", err)
	}
}

func TestConcatRowsChecksItsMaps(t *testing.T) {
	m := randomCSRGrow(rand.New(rand.NewSource(3)), 3, 3, 0.5)
	two := []*CSR[float64]{m, m}
	for name, maps := range map[string][2][][]int32{
		"short rowPos":        {{{0, 1}, {3, 4, 5}}, {nil, nil}},
		"non-monotone rowPos": {{{2, 1, 0}, {3, 4, 5}}, {nil, nil}},
		"out-of-range rowPos": {{{0, 1, 2}, {3, 4, 9}}, {nil, nil}},
		"out-of-range colPos": {{{0, 1, 2}, {3, 4, 5}}, {nil, {0, 1, 3}}},
		"one map short":       {{{0, 1, 2}}, {nil, nil}},
	} {
		if _, err := ConcatRows(two, maps[0], maps[1], 6, 3); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The refusal names the Gather, whichever caller assembled it.
	if _, err := ConcatRows(two, [][]int32{nil, {3, 4, 5}}, [][]int32{nil, nil}, 6, 2); err == nil || !strings.HasPrefix(err.Error(), "sparse: Gather part 0: ") {
		t.Errorf("column shrink: got %v, want the Gather's refusal of part 0", err)
	}
}

// One part is an embedding: values shared, and the part itself when
// nothing moves.
func TestConcatRowsOfOnePartIsEmbed(t *testing.T) {
	m := randomCSRGrow(rand.New(rand.NewSource(4)), 4, 5, 0.6)
	got, err := ConcatRows([]*CSR[float64]{m}, [][]int32{{1, 2, 4, 6}}, [][]int32{{0, 2, 3, 5, 7}}, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != m.NNZ() || &got.val[0] != &m.val[0] {
		t.Error("one part's values were copied")
	}
	if same, _ := ConcatRows([]*CSR[float64]{m}, [][]int32{nil}, [][]int32{nil}, 4, 5); same != m {
		t.Error("one part that moves nowhere is not returned as it is")
	}
}

// BenchmarkConcatRows gathers two row-disjoint halves of an R-MAT
// scale-14 adjacency pattern (the rows dealt out by parity, each half
// with its own row space) into the full matrix.
func BenchmarkConcatRows(b *testing.B) {
	eout, ein := rmatUnitRows(b, 14, 8)
	adj, err := FoldUnitRows(eout.cols, ein.cols, eout.colIdx, ein.colIdx, eout.val, ein.val, semiring.PlusTimes(), MxmOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var parts []*CSR[float64]
	var rowPos [][]int32
	for p := 0; p < 2; p++ {
		var rows []int32
		for i := p; i < adj.rows; i += 2 {
			rows = append(rows, int32(i))
		}
		half, err := adj.ExtractRows(rows)
		if err != nil {
			b.Fatal(err)
		}
		parts, rowPos = append(parts, half), append(rowPos, rows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConcatRows(parts, rowPos, [][]int32{nil, nil}, adj.rows, adj.cols); err != nil {
			b.Fatal(err)
		}
	}
}
