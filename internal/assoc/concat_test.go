package assoc

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
)

func eqFloat(a, b float64) bool { return a == b }

// unionKeys is New over every set's keys: a union that shares no code
// with UnionAll's sweep.
func unionKeys(sets ...*keys.Set) *keys.Set {
	var all []string
	for _, s := range sets {
		all = append(all, s.Keys()...)
	}
	return keys.New(all...)
}

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

// referenceGather is the gather ConcatRows replaces: union the key sets
// pairwise, reindex every part into the union space by key, ⊕ them
// together in order. On row-disjoint parts no ⊕ combines two values.
// The union is New's over every part's keys, not UnionAll's sweep, and
// the merge is Add's ⊕, not the gather's row copy.
func referenceGather(t *testing.T, parts []*Array[float64], ops semiring.Ops[float64]) *Array[float64] {
	t.Helper()
	rowSets, colSets := make([]*keys.Set, len(parts)), make([]*keys.Set, len(parts))
	for k, p := range parts {
		rowSets[k], colSets[k] = p.rows, p.cols
	}
	rows, cols := unionKeys(rowSets...), unionKeys(colSets...)
	var acc *Array[float64]
	for _, p := range parts {
		e, err := p.Reindex(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = e
			continue
		}
		if acc, err = Add(acc, e, ops); err != nil {
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
	}
}

// Two parts that store the same row are refused with the row's KEY and
// the parts' indices, still matching the kernel's error.
func TestConcatRowsNamesTheSharedRow(t *testing.T) {
	a := FromTriples([]Triple[float64]{{Row: "alice", Col: "x", Val: 1}, {Row: "bob", Col: "y", Val: 2}}, nil)
	b := FromTriples([]Triple[float64]{{Row: "carol", Col: "x", Val: 3}}, nil)
	c := FromTriples([]Triple[float64]{{Row: "bob", Col: "z", Val: 4}, {Row: "dave", Col: "x", Val: 5}}, nil)
	for name, concat := range map[string]func([]*Array[float64]) (*Array[float64], error){
		"ConcatRows": ConcatRows[float64],
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

// One part is returned as it is: there is nothing to align.
func TestConcatRowsOfOnePartShares(t *testing.T) {
	a := FromTriples([]Triple[float64]{{Row: "a", Col: "b", Val: 1}, {Row: "c", Col: "d", Val: 2}}, nil)
	if got, err := ConcatRows([]*Array[float64]{a}); err != nil || got != a {
		t.Errorf("ConcatRows of one part = %v, %v; want the part itself", got, err)
	}
}

// A fold through the maps a key-set union yields — how a view carries its
// adjacency into a grown universe — against Add, which aligns the
// operands itself and shares no code with the Gather: the same array, for
// accumulators whose key sets are grown before, between and after their
// keys, and for a delta whose every key is new.
func TestGatherThroughUnionMapsMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		ops := semiring.PlusTimes()
		a := FromTriples(randomTriples(r, 20, 8, 8, "r"), ops.Add)
		b := FromTriples(randomTriples(r, 10, 12, 12, "r"), ops.Add)
		if trial == 0 {
			ops = semiring.MaxPlus()
			a = FromTriples([]Triple[float64]{{Row: "a", Col: "a", Val: 1}}, nil)
			b = FromTriples([]Triple[float64]{{Row: "b", Col: "c", Val: 2}}, nil)
		}
		want, err := Add(a, b, ops)
		if err != nil {
			t.Fatal(err)
		}
		rows, rowPos, err := keys.UnionAll([]*keys.Set{a.rows, b.rows})
		if err != nil {
			t.Fatal(err)
		}
		cols, colPos, err := keys.UnionAll([]*keys.Set{a.cols, b.cols})
		if err != nil {
			t.Fatal(err)
		}
		aligned, err := b.Reindex(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		fold := sparse.Gather[float64]{
			Parts: []*sparse.CSR[float64]{a.mat}, RowPos: [][]int32{rowPos[0]}, ColPos: [][]int32{colPos[0]},
			Deltas: []*sparse.CSR[float64]{aligned.mat}, Ops: ops, Rows: rows.Len(), Cols: cols.Len(),
		}
		m, err := fold.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(rows, cols, m)
		if err != nil {
			t.Fatal(err)
		}
		if d := Diff(got, want, eqFloat, nil); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}
