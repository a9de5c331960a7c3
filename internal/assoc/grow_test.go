package assoc

import (
	"fmt"
	"math/rand"
	"testing"
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
