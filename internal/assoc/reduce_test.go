package assoc

import (
	"testing"

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
