package assoc

import (
	"strings"
	"testing"

	"adjarray/internal/keys"
	"adjarray/internal/sparse"
	"adjarray/internal/value"
)

func eqF(a, b float64) bool { return value.Float64Equal(a, b) }

// tiny builds the array
//
//	       c1 c2
//	r1      1  2
//	r2         3
func tiny() *Array[float64] {
	return FromTriples([]Triple[float64]{
		{"r1", "c1", 1}, {"r1", "c2", 2}, {"r2", "c2", 3},
	}, nil)
}

func TestFromTriplesBasics(t *testing.T) {
	a := tiny()
	if r, c := a.Shape(); r != 2 || c != 2 {
		t.Fatalf("shape %d×%d", r, c)
	}
	if a.NNZ() != 3 {
		t.Fatalf("nnz %d", a.NNZ())
	}
	if v, ok := a.At("r1", "c2"); !ok || v != 2 {
		t.Errorf("At(r1,c2) = %v,%v", v, ok)
	}
	if _, ok := a.At("r2", "c1"); ok {
		t.Error("missing entry reported present")
	}
	if _, ok := a.At("nope", "c1"); ok {
		t.Error("unknown row key reported present")
	}
	if _, ok := a.At("r1", "nope"); ok {
		t.Error("unknown col key reported present")
	}
}

func TestFromTriplesDuplicates(t *testing.T) {
	ts := []Triple[float64]{{"r", "c", 1}, {"r", "c", 5}}
	last := FromTriples(ts, nil)
	if v, _ := last.At("r", "c"); v != 5 {
		t.Errorf("overwrite semantics got %v", v)
	}
	sum := FromTriples(ts, func(a, b float64) float64 { return a + b })
	if v, _ := sum.At("r", "c"); v != 6 {
		t.Errorf("sum semantics got %v", v)
	}
}

func TestKeySetsAreSorted(t *testing.T) {
	a := FromTriples([]Triple[float64]{
		{"zebra", "x", 1}, {"apple", "y", 1},
	}, nil)
	if a.RowKeys().Key(0) != "apple" || a.RowKeys().Key(1) != "zebra" {
		t.Error("row keys not sorted")
	}
}

func TestNewValidatesShape(t *testing.T) {
	rows := keys.New("a", "b")
	cols := keys.New("x")
	if _, err := New(rows, cols, sparse.NewCOO[float64](2, 2).ToCSR(nil)); err == nil {
		t.Error("mismatched matrix accepted")
	}
	if _, err := New(rows, cols, sparse.NewCOO[float64](2, 1).ToCSR(nil)); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder[float64](nil)
	b.Set("r", "c", 1).Set("r", "d", 2)
	if b.Len() != 2 {
		t.Fatalf("builder len %d", b.Len())
	}
	a := b.Build()
	if a.NNZ() != 2 {
		t.Errorf("built nnz %d", a.NNZ())
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	a := tiny()
	b := FromTriples(a.Triples(), nil)
	if !a.Equal(b, eqF) {
		t.Error("Triples → FromTriples is not the identity")
	}
}

func TestIterateOrder(t *testing.T) {
	var seen []string
	tiny().Iterate(func(r, c string, v float64) {
		seen = append(seen, r+"/"+c)
	})
	want := []string{"r1/c1", "r1/c2", "r2/c2"}
	if strings.Join(seen, " ") != strings.Join(want, " ") {
		t.Errorf("Iterate order %v, want %v", seen, want)
	}
}

func TestIterateUntilEarlyExit(t *testing.T) {
	var seen []string
	done := tiny().IterateUntil(func(r, c string, v float64) bool {
		seen = append(seen, r+"/"+c)
		return len(seen) < 2
	})
	if done {
		t.Error("IterateUntil reported completion after an early stop")
	}
	if strings.Join(seen, " ") != "r1/c1 r1/c2" {
		t.Errorf("IterateUntil visited %v, want first two entries in key order", seen)
	}
	if !tiny().IterateUntil(func(string, string, float64) bool { return true }) {
		t.Error("full sweep reported early stop")
	}
}

func TestEqualAndPattern(t *testing.T) {
	a := tiny()
	if !a.Equal(tiny(), eqF) {
		t.Error("identical arrays unequal")
	}
	different := FromTriples([]Triple[float64]{
		{"r1", "c1", 9}, {"r1", "c2", 2}, {"r2", "c2", 3},
	}, nil)
	if a.Equal(different, eqF) {
		t.Error("different values compared equal")
	}
	if !SamePattern(a, different) {
		t.Error("same pattern not recognized")
	}
	otherKeys := FromTriples([]Triple[float64]{
		{"r1", "c1", 1}, {"r1", "c3", 2}, {"r2", "c3", 3},
	}, nil)
	if SamePattern(a, otherKeys) {
		t.Error("different key sets compared same-pattern")
	}
}

func TestMapAndPrune(t *testing.T) {
	a := tiny().Map(func(r, c string, v float64) float64 { return v * 10 })
	if v, _ := a.At("r2", "c2"); v != 30 {
		t.Errorf("Map got %v", v)
	}
	p := a.Map(func(r, c string, v float64) float64 {
		if r == "r1" {
			return 0
		}
		return v
	}).Prune(func(v float64) bool { return v == 0 })
	if p.NNZ() != 1 {
		t.Errorf("Prune kept %d", p.NNZ())
	}
	// Key sets survive pruning (pattern empties, keys remain).
	if p.RowKeys().Len() != 2 {
		t.Error("Prune should not shrink key sets")
	}
}

func TestTranspose(t *testing.T) {
	a := tiny()
	at := a.Transpose()
	if v, ok := at.At("c2", "r1"); !ok || v != 2 {
		t.Errorf("Aᵀ(c2,r1) = %v,%v", v, ok)
	}
	if !at.Transpose().Equal(a, eqF) {
		t.Error("double transpose not identity")
	}
	if !at.RowKeys().Equal(a.ColKeys()) || !at.ColKeys().Equal(a.RowKeys()) {
		t.Error("transpose did not swap key sets")
	}
}

func TestSubRef(t *testing.T) {
	a := FromTriples([]Triple[float64]{
		{"t1", "Genre|Pop", 1}, {"t1", "Writer|Ann", 1},
		{"t2", "Genre|Rock", 1}, {"t2", "Writer|Bob", 1},
	}, nil)
	genres := a.SubRef(nil, keys.Prefix{P: "Genre|"})
	if genres.ColKeys().Len() != 2 || genres.NNZ() != 2 {
		t.Errorf("genre subref: %d cols, %d nnz", genres.ColKeys().Len(), genres.NNZ())
	}
	if genres.RowKeys().Len() != 2 {
		t.Error("row keys should be untouched by nil selector")
	}
	sub, err := a.SubRefExpr("t1", "Writer|*")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NNZ() != 1 {
		t.Errorf("expr subref nnz %d", sub.NNZ())
	}
	if v, ok := sub.At("t1", "Writer|Ann"); !ok || v != 1 {
		t.Errorf("expr subref content: %v %v", v, ok)
	}
	if _, err := a.SubRefExpr("", "Writer|*"); err == nil {
		t.Error("bad row selector accepted")
	}
	if _, err := a.SubRefExpr(":", "x : "); err == nil {
		t.Error("bad col selector accepted")
	}
}

func TestDegrees(t *testing.T) {
	a := tiny()
	rd := a.RowDegrees()
	if rd["r1"] != 2 || rd["r2"] != 1 {
		t.Errorf("row degrees %v", rd)
	}
}

func TestReindex(t *testing.T) {
	a := tiny()
	bigger, err := a.Reindex(keys.New("r1", "r2", "r3"), keys.New("c0", "c1", "c2"))
	if err != nil {
		t.Fatal(err)
	}
	if r, c := bigger.Shape(); r != 3 || c != 3 {
		t.Fatalf("reindexed shape %d×%d", r, c)
	}
	if v, ok := bigger.At("r1", "c2"); !ok || v != 2 {
		t.Error("entry lost in reindex")
	}
	if bigger.NNZ() != a.NNZ() {
		t.Error("reindex changed nnz")
	}
	if _, err := a.Reindex(keys.New("r1"), a.ColKeys()); err == nil {
		t.Error("reindex into smaller set should fail")
	}
	if _, err := a.Reindex(a.RowKeys(), keys.New("c1")); err == nil {
		t.Error("reindex into missing col set should fail")
	}
}

func TestFormatGrid(t *testing.T) {
	s := Format(tiny(), value.FormatFloat)
	for _, want := range []string{"c1", "c2", "r1", "r2", "3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q:\n%s", want, s)
		}
	}
	// r2/c1 must render blank: the line for r2 should contain no "1".
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "r2") && strings.Contains(line, "1") {
			t.Errorf("structural zero rendered: %q", line)
		}
	}
}
