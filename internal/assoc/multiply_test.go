package assoc

import (
	"math/rand"
	"strconv"
	"testing"

	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
)

// incidencePair builds the paper's Lemma II.2 gadget as associative
// arrays: two parallel edges k1,k2 from a to b.
func incidencePair(v, w float64) (eout, ein *Array[float64]) {
	eout = FromTriples([]Triple[float64]{
		{"k1", "a", v}, {"k2", "a", w},
	}, nil)
	ein = FromTriples([]Triple[float64]{
		{"k1", "b", 1}, {"k2", "b", 1},
	}, nil)
	return eout, ein
}

func TestMulKnownCorrelation(t *testing.T) {
	eout, ein := incidencePair(1, 1)
	// A = Eoutᵀ · Ein : a→b via two edges, +.* sums to 2.
	a, err := Correlate(eout, ein, semiring.PlusTimes(), MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := a.At("a", "b"); !ok || v != 2 {
		t.Errorf("A(a,b) = %v,%v; want 2", v, ok)
	}
	if a.RowKeys().Len() != 1 || a.ColKeys().Len() != 1 {
		t.Error("result key sets should be the incidence column key sets")
	}
}

// Correlate folds only what has the shape of a graph's incidence pair:
// unit rows on both sides over one row key set. A pair with a two-entry
// row (a hyperedge), an empty row, or row key sets that merely overlap
// takes the general engine — and whichever runs, the result is
// Mul(Aᵀ, B), first.* (order-sensitive) included.
func TestCorrelateFoldsUnitRowsAndFallsBackOtherwise(t *testing.T) {
	graphOut := []Triple[float64]{{"k1", "a", 2}, {"k2", "b", 3}, {"k3", "a", 5}, {"k4", "a", 7}}
	graphIn := []Triple[float64]{{"k1", "x", 1}, {"k2", "x", 4}, {"k3", "x", 6}, {"k4", "y", 8}}
	for _, c := range []struct {
		name    string
		out, in []Triple[float64]
		folds   bool
	}{
		{"graph", graphOut, graphIn, true},
		{"two-entry row", append([]Triple[float64]{{"k2", "c", 9}}, graphOut...), graphIn, false},
		{"empty row", graphOut, graphIn[:3], false}, // k4 has a source and no target
		{"unequal row keys", graphOut, append([]Triple[float64]{{"k5", "y", 9}}, graphIn[1:]...), false},
	} {
		a, b := FromTriples(c.out, nil), FromTriples(c.in, nil)
		if c.name == "empty row" {
			// Same row keys, one row of b left without an entry.
			var err error
			if b, err = b.Reindex(a.RowKeys(), b.ColKeys()); err != nil {
				t.Fatal(err)
			}
		}
		folds := a.mat.UnitRows() && b.mat.UnitRows() && a.rows.Equal(b.rows)
		if folds != c.folds {
			t.Errorf("%s: Correlate would fold = %v, want %v", c.name, folds, c.folds)
		}
		for _, ops := range []semiring.Ops[float64]{semiring.PlusTimes(), semiring.LeftmostNonzero(), semiring.MaxMin()} {
			for _, opt := range []MulOptions{{}, {Workers: 2, FlopFloor: -1}} {
				got, err := Correlate(a, b, ops, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Mul(a.Transpose(), b, ops, MulOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if d := Diff(want, got, ops.Equal, nil); d != "" {
					t.Errorf("%s, %s, workers %d: Correlate differs from Mul(Transpose): %s", c.name, ops.Name, opt.Workers, d)
				}
				if err := got.Validate(); err != nil {
					t.Errorf("%s, %s: %v", c.name, ops.Name, err)
				}
			}
		}
	}
}

func TestMulKeyAlignmentIntersectsSharedDimension(t *testing.T) {
	// A's column keys {k1,k2,k3}; B's row keys {k2,k3,k4}: only k2,k3
	// contribute.
	a := FromTriples([]Triple[float64]{
		{"r", "k1", 5}, {"r", "k2", 1}, {"r", "k3", 2},
	}, nil)
	b := FromTriples([]Triple[float64]{
		{"k2", "c", 10}, {"k3", "c", 100}, {"k4", "c", 7},
	}, nil)
	c, err := Mul(a, b, semiring.PlusTimes(), MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.At("r", "c"); !ok || v != 1*10+2*100 {
		t.Errorf("aligned product = %v,%v; want 210", v, ok)
	}
}

func TestMulDisjointSharedDimensionIsEmpty(t *testing.T) {
	a := FromTriples([]Triple[float64]{{"r", "k1", 1}}, nil)
	b := FromTriples([]Triple[float64]{{"k2", "c", 1}}, nil)
	c, err := Mul(a, b, semiring.PlusTimes(), MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 {
		t.Errorf("disjoint inner keys should give empty product, nnz=%d", c.NNZ())
	}
	if c.RowKeys().Len() != 1 || c.ColKeys().Len() != 1 {
		t.Error("result key sets should still be rows(a)×cols(b)")
	}
}

func TestMulKernelsAndParallelAgree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b1 := NewBuilder[float64](nil)
	b2 := NewBuilder[float64](nil)
	for i := 0; i < 200; i++ {
		b1.Set("e"+strconv.Itoa(r.Intn(40)), "v"+strconv.Itoa(r.Intn(20)), float64(1+r.Intn(5)))
		b2.Set("e"+strconv.Itoa(r.Intn(40)), "w"+strconv.Itoa(r.Intn(25)), float64(1+r.Intn(5)))
	}
	eout, ein := b1.Build(), b2.Build()
	// The reference: sparse.MulMerge over the union of the edge keys
	// (an edge key on one side only is an empty row on the other, and
	// contributes nothing).
	edges := eout.RowKeys().Union(ein.RowKeys())
	eo, err := eout.Reindex(edges, eout.ColKeys())
	if err != nil {
		t.Fatal(err)
	}
	ei, err := ein.Reindex(edges, ein.ColKeys())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sparse.MulMerge(eo.Matrix().Transpose(), ei.Matrix(), semiring.MaxPlus())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(eout.ColKeys(), ein.ColKeys(), m)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []MulOptions{
		{}, {Workers: 1}, {Workers: 4}, {Workers: 4, FlopFloor: -1}, {Workers: -1, FlopFloor: -1},
	} {
		got, err := Correlate(eout, ein, semiring.MaxPlus(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(got, eqF) {
			t.Errorf("option %+v disagrees with merge kernel", opt)
		}
	}
}

func TestMulDenseMatchesSparseForCompliantAlgebra(t *testing.T) {
	eout, ein := incidencePair(2, 3)
	for _, ops := range semiring.Figure3Pairs() {
		s, err := Correlate(eout, ein, ops, MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := MulDense(eout.Transpose(), ein, ops)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Equal(d, eqF) {
			t.Errorf("%s: sparse product differs from Definition I.3 dense product", ops.Name)
		}
	}
}

// Lemma II.2 realized end-to-end: with a non-zero-sum-free algebra
// (signed reals), two parallel edges weighted v and −v cancel, producing
// a structural zero where the graph has edges — the product is NOT an
// adjacency array.
func TestMulCancellationUnderRing(t *testing.T) {
	eout, ein := incidencePair(5, -5)
	a, err := Correlate(eout, ein, semiring.PlusTimes().Rename("ring"), MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.At("a", "b"); ok {
		t.Error("cancelled entry should be pruned — that is the violation the lemma predicts")
	}
}

func TestAddUnionSemantics(t *testing.T) {
	a := FromTriples([]Triple[float64]{{"r1", "c1", 1}}, nil)
	b := FromTriples([]Triple[float64]{{"r1", "c1", 2}, {"r2", "c2", 7}}, nil)
	sum, err := Add(a, b, semiring.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sum.At("r1", "c1"); v != 3 {
		t.Errorf("overlap sum = %v", v)
	}
	if v, ok := sum.At("r2", "c2"); !ok || v != 7 {
		t.Errorf("one-sided entry = %v,%v", v, ok)
	}
	if sum.RowKeys().Len() != 2 || sum.ColKeys().Len() != 2 {
		t.Error("Add should use union key sets")
	}
}

func TestElementMulIntersectionSemantics(t *testing.T) {
	a := FromTriples([]Triple[float64]{{"r", "c", 3}, {"r", "d", 5}}, nil)
	b := FromTriples([]Triple[float64]{{"r", "c", 4}, {"r", "e", 9}}, nil)
	prod, err := ElementMul(a, b, semiring.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	if prod.NNZ() != 1 {
		t.Fatalf("intersection nnz = %d", prod.NNZ())
	}
	if v, _ := prod.At("r", "c"); v != 12 {
		t.Errorf("product = %v", v)
	}
}

func TestAddAlignedFastPath(t *testing.T) {
	a := tiny()
	b := tiny()
	sum, err := Add(a, b, semiring.PlusTimes())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sum.At("r2", "c2"); v != 6 {
		t.Errorf("aligned add = %v", v)
	}
}

// Array multiplication respects Definition I.3's ordered fold: with the
// non-commutative first.* pair, the contribution of the lexicographically
// first shared key wins.
func TestMulNonCommutativeFoldOrder(t *testing.T) {
	eout := FromTriples([]Triple[float64]{
		{"k1", "a", 3}, {"k2", "a", 4},
	}, nil)
	ein := FromTriples([]Triple[float64]{
		{"k1", "b", 1}, {"k2", "b", 1},
	}, nil)
	a, err := Correlate(eout, ein, semiring.LeftmostNonzero(), MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := a.At("a", "b"); v != 3 {
		t.Errorf("fold order violated: got %v, want 3 (k1 before k2)", v)
	}
}

// (AB)ᵀ = BᵀAᵀ holds for commutative ⊗ but may fail otherwise — the
// paper's Section III remark.
func TestTransposeProductIdentityNeedsCommutativity(t *testing.T) {
	a := FromTriples([]Triple[float64]{{"x", "k", 2}}, nil)
	b := FromTriples([]Triple[float64]{{"k", "y", 5}}, nil)

	ops := semiring.PlusTimes()
	ab, _ := Mul(a, b, ops, MulOptions{})
	ba, _ := Mul(b.Transpose(), a.Transpose(), ops, MulOptions{})
	if !ab.Transpose().Equal(ba, eqF) {
		t.Error("(AB)ᵀ ≠ BᵀAᵀ under commutative ⊗")
	}

	// Non-commutative ⊗: keep the left operand. (AB)ᵀ keeps a's value,
	// BᵀAᵀ keeps b's value.
	nc := semiring.Ops[float64]{
		Name: "left", Add: ops.Add, Zero: 0, One: 1, Equal: ops.Equal,
		Mul: func(x, y float64) float64 { return x },
	}
	ab, _ = Mul(a, b, nc, MulOptions{})
	ba, _ = Mul(b.Transpose(), a.Transpose(), nc, MulOptions{})
	vAB, _ := ab.Transpose().At("y", "x")
	vBA, _ := ba.At("y", "x")
	if vAB == vBA {
		t.Error("expected (AB)ᵀ ≠ BᵀAᵀ for non-commutative ⊗")
	}
	if vAB != 2 || vBA != 5 {
		t.Errorf("got vAB=%v vBA=%v, want 2 and 5", vAB, vBA)
	}
}

func TestExplodeMusicStyle(t *testing.T) {
	table := Table{
		Rows:   []string{"t1", "t2"},
		Fields: []string{"Genre", "Writer"},
		Cells: [][]string{
			{"Rock", "Ann;Bob"},
			{"Pop", ""},
		},
	}
	e, err := Explode(table, ExplodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.NNZ() != 4 {
		t.Fatalf("exploded nnz = %d", e.NNZ())
	}
	for _, k := range []string{"Genre|Rock", "Genre|Pop", "Writer|Ann", "Writer|Bob"} {
		if !e.ColKeys().Contains(k) {
			t.Errorf("missing exploded column %q", k)
		}
	}
	if v, ok := e.At("t1", "Writer|Bob"); !ok || v != 1 {
		t.Errorf("multi-value cell not exploded: %v %v", v, ok)
	}
	if _, ok := e.At("t2", "Writer|Ann"); ok {
		t.Error("empty cell produced an entry")
	}
}

func TestExplodeCustomValueAndSeparators(t *testing.T) {
	table := Table{
		Rows:   []string{"r"},
		Fields: []string{"F"},
		Cells:  [][]string{{"x, y"}},
	}
	e, err := Explode(table, ExplodeOptions{
		Sep:      ":",
		MultiSep: ",",
		Value: func(row, field, v string) float64 {
			if v == "y" {
				return 2
			}
			return 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.At("r", "F:y"); !ok || v != 2 {
		t.Errorf("custom Value not applied: %v %v", v, ok)
	}
	if v, ok := e.At("r", "F:x"); !ok || v != 1 {
		t.Errorf("custom separators broke explode: %v %v", v, ok)
	}
}

func TestExplodeValidates(t *testing.T) {
	bad := Table{Rows: []string{"r"}, Fields: []string{"F"}, Cells: [][]string{}}
	if _, err := Explode(bad, ExplodeOptions{}); err == nil {
		t.Error("ragged table accepted")
	}
	bad2 := Table{Rows: []string{"r"}, Fields: []string{"F"}, Cells: [][]string{{"a", "b"}}}
	if _, err := Explode(bad2, ExplodeOptions{}); err == nil {
		t.Error("wide row accepted")
	}
}

func TestImplodeRoundTrip(t *testing.T) {
	table := Table{
		Rows:   []string{"t1", "t2"},
		Fields: []string{"Genre", "Writer"},
		Cells: [][]string{
			{"Rock", "Ann;Bob"},
			{"Pop", "Cy"},
		},
	}
	e, err := Explode(table, ExplodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Implode(e, "|", ";")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 || len(back.Fields) != 2 {
		t.Fatalf("imploded shape %dx%d", len(back.Rows), len(back.Fields))
	}
	// Find the Writer cell of t1 (field order follows column-key order).
	var writers string
	for j, f := range back.Fields {
		if f == "Writer" {
			writers = back.Cells[0][j]
		}
	}
	if writers != "Ann;Bob" {
		t.Errorf("imploded writers = %q", writers)
	}
	plain := FromTriples([]Triple[float64]{{"r", "nosep", 1}}, nil)
	if _, err := Implode(plain, "|", ";"); err == nil {
		t.Error("column without separator accepted")
	}
}
