package assoc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
	empty := func(r, c int) *sparse.CSR[float64] {
		m, err := sparse.NewCSR[float64](r, c, make([]int32, r+1), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if _, err := New(rows, cols, empty(2, 2)); err == nil {
		t.Error("mismatched matrix accepted")
	}
	if _, err := New(rows, cols, empty(2, 1)); err != nil {
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

// refFromTriples is the construction FromTriples replaced, kept as the
// oracle: key sets by New, each triple's coordinates by a map, the
// triples stable-sorted row-major and each cell's duplicates folded left
// to right in slice order (nil keeps the last).
func refFromTriples(ts []Triple[float64], combine func(a, b float64) float64) (rows, cols *keys.Set, rowPtr, colIdx []int32, val []float64) {
	var rk, ck []string
	for _, t := range ts {
		rk, ck = append(rk, t.Row), append(ck, t.Col)
	}
	rows, cols = keys.New(rk...), keys.New(ck...)
	at := func(s *keys.Set) map[string]int {
		m := map[string]int{}
		for i := 0; i < s.Len(); i++ {
			m[s.Key(i)] = i
		}
		return m
	}
	ri, ci := at(rows), at(cols)
	type cell struct {
		r, c int
		v    float64
	}
	cs := make([]cell, len(ts))
	for k, t := range ts {
		cs[k] = cell{ri[t.Row], ci[t.Col], t.Val}
	}
	sort.SliceStable(cs, func(a, b int) bool {
		if cs[a].r != cs[b].r {
			return cs[a].r < cs[b].r
		}
		return cs[a].c < cs[b].c
	})
	rowPtr = make([]int32, rows.Len()+1)
	for i := 0; i < len(cs); {
		j, acc := i+1, cs[i].v
		for ; j < len(cs) && cs[j].r == cs[i].r && cs[j].c == cs[i].c; j++ {
			if combine != nil {
				acc = combine(acc, cs[j].v)
			} else {
				acc = cs[j].v
			}
		}
		colIdx, val = append(colIdx, int32(cs[i].c)), append(val, acc)
		rowPtr[cs[i].r+1]++
		i = j
	}
	for r := 0; r < rows.Len(); r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return rows, cols, rowPtr, colIdx, val
}

// FromTriples against the stable-sort reference, bit for bit: random
// triples over small key alphabets, so cells repeat, with explicit zeros
// among the values, under overwrite and under the non-commutative 2a+b.
func TestFromTriplesMatchesStableSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	combines := map[string]func(a, b float64) float64{
		"nil":  nil,
		"2a+b": func(a, b float64) float64 { return 2*a + b },
	}
	vals := []float64{0, 1, -2, 0.5, 3}
	for trial := 0; trial < 300; trial++ {
		ts := make([]Triple[float64], r.Intn(40))
		for k := range ts {
			ts[k] = Triple[float64]{Row: fmt.Sprintf("r%d", r.Intn(6)), Col: fmt.Sprintf("c%d", r.Intn(6)), Val: vals[r.Intn(len(vals))]}
		}
		for name, combine := range combines {
			got := FromTriples(ts, combine)
			rows, cols, rowPtr, colIdx, val := refFromTriples(ts, combine)
			gp, gc, gv := got.Matrix().Parts()
			bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !got.RowKeys().Equal(rows) || !got.ColKeys().Equal(cols) ||
				!slices.Equal(gp, rowPtr) || !slices.Equal(gc, colIdx) || !slices.EqualFunc(gv, val, bits) {
				t.Fatalf("trial %d, combine %s: FromTriples %v %v %v %v %v, want %v %v %v %v %v\ntriples %v",
					trial, name, got.RowKeys(), got.ColKeys(), gp, gc, gv, rows, cols, rowPtr, colIdx, val, ts)
			}
		}
	}
}

// Reindex into random supersets against per-entry lookups: every stored
// entry lands at its keys in the new sets with its value, and nothing
// else is stored. A target set lacking one of the array's keys is
// refused, naming the first such key.
func TestReindexMatchesPerEntryLookups(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		ts := make([]Triple[float64], 1+r.Intn(20))
		for k := range ts {
			ts[k] = Triple[float64]{Row: fmt.Sprintf("r%d", r.Intn(8)), Col: fmt.Sprintf("c%d", r.Intn(8)), Val: float64(1 + r.Intn(9))}
		}
		a := FromTriples(ts, nil)
		grow := func(s *keys.Set, prefix string) *keys.Set {
			ks := s.Keys()
			for i := 0; i < 12; i++ {
				if r.Intn(2) == 0 {
					ks = append(ks, fmt.Sprintf("%s%d", prefix, i))
				}
			}
			return keys.New(ks...)
		}
		rows, cols := grow(a.RowKeys(), "r"), grow(a.ColKeys(), "c")
		got, err := a.Reindex(rows, cols)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.RowKeys() != rows || got.ColKeys() != cols || got.NNZ() != a.NNZ() {
			t.Fatalf("trial %d: reindexed over %v×%v with %d entries, want %v×%v with %d", trial, got.RowKeys(), got.ColKeys(), got.NNZ(), rows, cols, a.NNZ())
		}
		a.Matrix().Iterate(func(i, j int, v float64) {
			ri, _ := rows.Index(a.RowKeys().Key(i))
			ci, _ := cols.Index(a.ColKeys().Key(j))
			if w, ok := got.Matrix().At(ri, ci); !ok || w != v {
				t.Fatalf("trial %d: (%s,%s) = %v,%v, want %v", trial, a.RowKeys().Key(i), a.ColKeys().Key(j), w, ok, v)
			}
		})
	}
	a := FromTriples([]Triple[float64]{{"r1", "c1", 1}, {"r3", "c2", 2}, {"r5", "c3", 3}}, nil)
	for _, c := range []struct {
		rows, cols *keys.Set
		want       string
	}{
		{keys.New("r1", "r5"), a.ColKeys(), "assoc: Reindex target sets missing row r3"},
		{keys.New("r0"), a.ColKeys(), "assoc: Reindex target sets missing row r1"},
		{keys.New("r0", "r1", "r3", "r5"), keys.New("c0", "c1", "c2", "c3"), ""},
		{a.RowKeys(), keys.New("c1", "c2", "c4"), "assoc: Reindex target sets missing col c3"},
	} {
		_, err := a.Reindex(c.rows, c.cols)
		if got := fmt.Sprint(err); (c.want == "" && err != nil) || (c.want != "" && got != c.want) {
			t.Errorf("Reindex(%v, %v) = %v, want %q", c.rows, c.cols, err, c.want)
		}
	}
}
