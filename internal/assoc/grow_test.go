package assoc

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
)

func eqFloat(a, b float64) bool { return a == b }

func randomTriples(r *rand.Rand, n, rowCard, colCard int, rowPrefix string) []Triple[float64] {
	ts := make([]Triple[float64], 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, Triple[float64]{
			Row: fmt.Sprintf("%s%04d", rowPrefix, r.Intn(rowCard)),
			Col: fmt.Sprintf("c%04d", r.Intn(colCard)),
			Val: float64(r.Intn(9) + 1),
		})
	}
	return ts
}

func TestAddIntoMatchesAdd(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		a := FromTriples(randomTriples(r, 20, 8, 8, "r"), ops.Add)
		b := FromTriples(randomTriples(r, 10, 10, 10, "r"), ops.Add)
		want, err := Add(a, b, ops)
		if err != nil {
			t.Fatal(err)
		}
		// Clone a so the in-place trials cannot poison later oracles.
		ac := FromTriples(a.Triples(), ops.Add)
		got, err := AddInto(ac, b, ops, trial%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, eqFloat) {
			t.Fatalf("trial %d: AddInto != Add", trial)
		}
	}
}

func TestAddIntoInPlaceAliasing(t *testing.T) {
	ops := semiring.PlusTimes()
	a := FromTriples([]Triple[float64]{
		{Row: "x", Col: "p", Val: 1}, {Row: "y", Col: "q", Val: 2},
	}, nil)
	// Same keys, subset pattern → the fold lands in a's own storage.
	b := FromTriples([]Triple[float64]{{Row: "y", Col: "q", Val: 5}}, nil)
	br, err := b.Reindex(a.RowKeys(), a.ColKeys())
	if err != nil {
		t.Fatal(err)
	}
	got, err := AddInto(a, br, ops, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Error("aligned subset merge should return a itself")
	}
	if v, _ := got.At("y", "q"); v != 7 {
		t.Errorf("fold = %v", v)
	}
	// Without inPlace, a must stay untouched.
	a2 := FromTriples([]Triple[float64]{{Row: "x", Col: "p", Val: 1}}, nil)
	b2 := FromTriples([]Triple[float64]{{Row: "x", Col: "p", Val: 3}}, nil)
	got2, err := AddInto(a2, b2, ops, false)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := a2.At("x", "p"); v != 1 {
		t.Errorf("a mutated on copy path: %v", v)
	}
	if v, _ := got2.At("x", "p"); v != 4 {
		t.Errorf("copy-path fold = %v", v)
	}
}

func TestAddIntoGrowsKeySets(t *testing.T) {
	ops := semiring.MaxPlus()
	a := FromTriples([]Triple[float64]{{Row: "a", Col: "a", Val: 1}}, nil)
	b := FromTriples([]Triple[float64]{{Row: "b", Col: "c", Val: 2}}, nil)
	got, err := AddInto(a, b, ops, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowKeys().Len() != 2 || got.ColKeys().Len() != 2 {
		t.Fatalf("union keys wrong: %v × %v", got.RowKeys(), got.ColKeys())
	}
	if v, ok := got.At("b", "c"); !ok || v != 2 {
		t.Errorf("new-key entry lost: %v %v", v, ok)
	}
}

func TestEmbedInto(t *testing.T) {
	a := FromTriples([]Triple[float64]{{Row: "b", Col: "y", Val: 3}}, nil)
	rows := a.RowKeys().Union(FromTriples([]Triple[float64]{{Row: "a", Col: "z", Val: 1}}, nil).RowKeys())
	cols := a.ColKeys().Union(FromTriples([]Triple[float64]{{Row: "a", Col: "z", Val: 1}}, nil).ColKeys())
	e, err := a.EmbedInto(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Reindex(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Equal(want, eqFloat) {
		t.Error("EmbedInto != Reindex")
	}
	// Missing keys in the target are rejected.
	if _, err := a.EmbedInto(FromTriples([]Triple[float64]{{Row: "z", Col: "y", Val: 1}}, nil).RowKeys(), cols); err == nil {
		t.Error("target missing a's rows accepted")
	}
}
