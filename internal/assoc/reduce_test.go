package assoc

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

func TestConvertPreservesKeysAndPattern(t *testing.T) {
	a := tiny()
	s := Convert(a, func(r, c string, v float64) string { return value.FormatFloat(v) })
	if !SamePattern(a, s) {
		t.Fatal("Convert changed the pattern")
	}
	if got, ok := s.At("r2", "c2"); !ok || got != "3" {
		t.Errorf("converted value = %q,%v", got, ok)
	}
	// Key sets are shared, not rebuilt: rows with no entries would
	// survive conversion (exercised via Prune-then-Convert).
	empty := a.Prune(func(float64) bool { return true })
	ce := Convert(empty, func(_, _ string, v float64) int { return int(v) })
	if ce.RowKeys().Len() != 2 || ce.NNZ() != 0 {
		t.Error("Convert dropped keys of empty array")
	}
}

func TestReduceRows(t *testing.T) {
	a := tiny() // r1: 1,2 ; r2: 3
	sums := ReduceRows(a, func(x, y float64) float64 { return x + y })
	if sums["r1"] != 3 || sums["r2"] != 3 {
		t.Errorf("row sums = %v", sums)
	}
	// Fold order is ascending column key: with a non-commutative fold
	// the first column's value wins.
	firsts := ReduceRows(a, func(x, y float64) float64 { return x })
	if firsts["r1"] != 1 {
		t.Errorf("non-commutative row fold = %v", firsts)
	}
	// Empty rows are absent.
	pruned := a.Prune(func(v float64) bool { return v < 3 })
	sums = ReduceRows(pruned, func(x, y float64) float64 { return x + y })
	if _, ok := sums["r1"]; ok {
		t.Error("emptied row should be absent from ReduceRows")
	}
}

func TestReduceAll(t *testing.T) {
	a := tiny()
	total, any := ReduceAll(a, func(x, y float64) float64 { return x + y })
	if !any || total != 6 {
		t.Errorf("ReduceAll = %v,%v", total, any)
	}
	empty := a.Prune(func(float64) bool { return true })
	if _, any := ReduceAll(empty, func(x, y float64) float64 { return x + y }); any {
		t.Error("empty array reported entries")
	}
}

func TestMatrixAccessor(t *testing.T) {
	a := tiny()
	if a.Matrix().NNZ() != a.NNZ() {
		t.Error("Matrix() disagrees with NNZ")
	}
}

func TestMulMaskedAssocLevel(t *testing.T) {
	// Square symmetric array; mask = the array itself.
	p := FromTriples([]Triple[float64]{
		{Row: "a", Col: "b", Val: 1}, {Row: "b", Col: "a", Val: 1},
		{Row: "a", Col: "c", Val: 1}, {Row: "c", Col: "a", Val: 1},
		{Row: "b", Col: "c", Val: 1}, {Row: "c", Col: "b", Val: 1},
	}, nil)
	ops := semiring.PlusTimes()
	masked, err := MulMasked(p, p, p, ops, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Triangle abc: every entry of A² on the mask is 1 (one wedge).
	if masked.NNZ() != 6 {
		t.Errorf("masked nnz = %d", masked.NNZ())
	}
	total, _ := ReduceAll(masked, ops.Add)
	if total != 6 {
		t.Errorf("wedge total = %v, want 6 (one triangle ×6)", total)
	}

	// Misaligned mask keys are rejected.
	badMask := FromTriples([]Triple[float64]{{Row: "a", Col: "z", Val: 1}}, nil)
	if _, err := MulMasked(p, p, badMask, ops, MulOptions{}); err == nil {
		t.Error("misaligned mask accepted")
	}
	// Misaligned shared dimension is rejected.
	q := FromTriples([]Triple[float64]{{Row: "x", Col: "y", Val: 1}}, nil)
	if _, err := MulMasked(p, q, p, ops, MulOptions{}); err == nil {
		t.Error("misaligned operands accepted")
	}
}

func TestMulMaskedOptParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var triples, mtriples []Triple[float64]
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if r.Float64() < 0.2 {
				triples = append(triples, Triple[float64]{
					Row: fmt.Sprintf("k%02d", i), Col: fmt.Sprintf("k%02d", j),
					Val: float64(1 + r.Intn(9)),
				})
			}
			if r.Float64() < 0.3 {
				mtriples = append(mtriples, Triple[float64]{
					Row: fmt.Sprintf("k%02d", i), Col: fmt.Sprintf("k%02d", j), Val: 1,
				})
			}
		}
	}
	p := FromTriples(triples, nil)
	mask, err := FromTriples(mtriples, nil).Reindex(p.RowKeys(), p.ColKeys())
	if err != nil {
		t.Fatal(err)
	}
	ops := semiring.PlusTimes()
	serial, err := MulMasked(p, p, mask, ops, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// FlopFloor -1 forces the parallel path even on this small product.
	par, err := MulMasked(p, p, mask, ops, MulOptions{Workers: 4, FlopFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Equal(par, value.Float64Equal) {
		t.Fatal("MulMasked(Workers:4) differs from serial MulMasked")
	}
}
