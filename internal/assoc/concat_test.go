package assoc

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
)

// referenceGather is the gather ConcatRows replaces: union the key sets
// pairwise, embed every part into the union space, ⊕ them together in
// order. On row-disjoint parts no ⊕ combines two values.
func referenceGather(t *testing.T, parts []*Array[float64], ops semiring.Ops[float64]) *Array[float64] {
	t.Helper()
	rows, cols := parts[0].rows, parts[0].cols
	for _, p := range parts[1:] {
		rows, cols = rows.Union(p.rows), cols.Union(p.cols)
	}
	var acc *Array[float64]
	for _, p := range parts {
		e, err := p.EmbedInto(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = e
			continue
		}
		if acc, err = AddInto(acc, e, ops, false); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// rowDisjointParts builds k arrays whose rows carry the part's own
// prefix — so the row sets are disjoint and sort before, between and
// after one another — over column keys they partly share.
func rowDisjointParts(r *rand.Rand, k int) []*Array[float64] {
	parts := make([]*Array[float64], k)
	for p := range parts {
		prefix := fmt.Sprintf("%c", 'r'-p) // later parts sort EARLIER
		if r.Intn(3) == 0 {
			prefix = fmt.Sprintf("m%d-", p) // or in between
		}
		parts[p] = FromTriples(randomTriples(r, r.Intn(25), 6, 9, prefix), semiring.PlusTimes().Add)
	}
	return parts
}

func TestConcatRowsMatchesEmbedThenAdd(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ops := semiring.PlusTimes()
	for trial := 0; trial < 100; trial++ {
		parts := rowDisjointParts(r, 1+r.Intn(5))
		got, err := ConcatRows(parts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := Diff(got, referenceGather(t, parts, ops), eqFloat, nil); d != "" {
			t.Fatalf("trial %d (%d parts): %s", trial, len(parts), d)
		}

		// The square form is the same entries over rows ∪ cols on both sides.
		sq, err := ConcatRowsSquare(parts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		verts := got.rows.Union(got.cols)
		want, err := got.EmbedInto(verts, verts)
		if err != nil {
			t.Fatal(err)
		}
		if d := Diff(sq, want, eqFloat, nil); d != "" {
			t.Fatalf("trial %d (%d parts), square: %s", trial, len(parts), d)
		}
	}
}

// Two parts that store the same row are refused with the row's KEY and
// the parts' indices, still matching the kernel's error.
func TestConcatRowsNamesTheSharedRow(t *testing.T) {
	a := FromTriples([]Triple[float64]{{Row: "alice", Col: "x", Val: 1}, {Row: "bob", Col: "y", Val: 2}}, nil)
	b := FromTriples([]Triple[float64]{{Row: "carol", Col: "x", Val: 3}}, nil)
	c := FromTriples([]Triple[float64]{{Row: "bob", Col: "z", Val: 4}, {Row: "dave", Col: "x", Val: 5}}, nil)
	for name, concat := range map[string]func([]*Array[float64]) (*Array[float64], error){
		"ConcatRows": ConcatRows[float64], "ConcatRowsSquare": ConcatRowsSquare[float64],
	} {
		if _, err := concat([]*Array[float64]{a, b}); err != nil {
			t.Fatalf("%s of disjoint parts: %v", name, err)
		}
		_, err := concat([]*Array[float64]{a, b, c})
		var rc *sparse.RowConflictError
		if !errors.As(err, &rc) || rc.First != 0 || rc.Second != 2 {
			t.Fatalf("%s: got %v, want a row conflict between parts 0 and 2", name, err)
		}
		for _, want := range []string{`"bob"`, "part 0", "part 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: the refusal does not say %s: %v", name, want, err)
			}
		}
	}
}

// One part keeps today's sharing: returned as it is when there is nothing
// to align, its matrix itself when it is already square over one key set,
// and otherwise an embedding that shares its values.
func TestConcatRowsOfOnePartShares(t *testing.T) {
	a := FromTriples([]Triple[float64]{{Row: "a", Col: "b", Val: 1}, {Row: "c", Col: "d", Val: 2}}, nil)
	if got, err := ConcatRows([]*Array[float64]{a}); err != nil || got != a {
		t.Errorf("ConcatRows of one part = %v, %v; want the part itself", got, err)
	}
	sq, err := ConcatRowsSquare([]*Array[float64]{a})
	if err != nil {
		t.Fatal(err)
	}
	_, vals := a.mat.Row(0)
	_, sqVals := sq.mat.Row(0) // "a" is the first vertex too
	if sq.rows.Len() != 4 || sq.rows != sq.cols || &vals[0] != &sqVals[0] {
		t.Errorf("square form of a non-square part: %v × %v, values shared %v", sq.rows, sq.cols, &vals[0] == &sqVals[0])
	}
	square, err := a.EmbedInto(sq.rows, sq.cols)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := ConcatRowsSquare([]*Array[float64]{square}); err != nil || again.mat != square.mat {
		t.Errorf("a square part over one key set: matrix %p, want its own %p (%v)", again.mat, square.mat, err)
	}
}

// The merge with the alignment handed in against the merge that works it
// out: the same result, for accumulators whose key sets are grown before,
// between and after their keys.
func TestAddIntoMappedMatchesAddInto(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		a := FromTriples(randomTriples(r, 20, 8, 8, "r"), ops.Add)
		b := FromTriples(randomTriples(r, 10, 12, 12, "r"), ops.Add)
		want, err := AddInto(a, b, ops, false)
		if err != nil {
			t.Fatal(err)
		}
		rows, rowPos, _ := a.rows.UnionOffsets(b.rows)
		cols, colPos, _ := a.cols.UnionOffsets(b.cols)
		aligned, err := b.EmbedInto(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		var scratch sparse.MergeScratch[float64]
		got, err := AddIntoMapped(a, aligned, rowPos, colPos, ops, false, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if d := Diff(got, want, eqFloat, nil); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}
