package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{KindFloat64, "float64"},
		{KindInt64, "int64"},
		{KindString, "string"},
		{KindSet, "set"},
		{KindBool, "bool"},
		{Kind(99), "kind(99)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestFloat64Equal(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		a, b float64
		want bool
	}{
		{1, 1, true},
		{1, 2, false},
		{nan, nan, true},
		{nan, 1, false},
		{1, nan, false},
		{NegInf, NegInf, true},
		{PosInf, NegInf, false},
		{0, math.Copysign(0, -1), true}, // -0 == +0
	}
	for _, c := range cases {
		if got := Float64Equal(c.a, c.b); got != c.want {
			t.Errorf("Float64Equal(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{13, "13"},
		{0, "0"},
		{-3, "-3"},
		{2.5, "2.5"},
		{NegInf, "-Inf"},
		{PosInf, "+Inf"},
		{1e20, "1e+20"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, -7, 3.25, NegInf, PosInf, 1e20} {
		s := FormatFloat(v)
		got, err := ParseFloat(s)
		if err != nil {
			t.Fatalf("ParseFloat(%q): %v", s, err)
		}
		if got != v {
			t.Errorf("round trip %v -> %q -> %v", v, s, got)
		}
	}
	if _, err := ParseFloat("not-a-number"); err == nil {
		t.Error("ParseFloat accepted garbage")
	}
	if v, err := ParseFloat("Inf"); err != nil || !math.IsInf(v, 1) {
		t.Errorf("ParseFloat(Inf) = %v, %v", v, err)
	}
}

func TestNewSetCanonical(t *testing.T) {
	s := NewSet("b", "a", "b", "c", "a")
	if s.String() != "{a,b,c}" {
		t.Errorf("NewSet dedup/sort failed: %q", s.String())
	}
	if NewSet().String() != "" {
		t.Error("empty NewSet should render empty")
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet("x", "y")
	b := NewSet("y", "z")
	if got := a.Union(b).String(); got != "{x,y,z}" {
		t.Errorf("Union = %q", got)
	}
	if got := a.Intersect(b).String(); got != "{y}" {
		t.Errorf("Intersect = %q", got)
	}
	if !a.Intersect(NewSet("q")).IsEmpty() {
		t.Error("disjoint Intersect should be empty")
	}
	if !a.Union(nil).Equal(a) || !Set(nil).Union(a).Equal(a) {
		t.Error("∅ is not the identity of Union")
	}
	if !a.Intersect(nil).IsEmpty() || !Set(nil).Intersect(a).IsEmpty() {
		t.Error("∅ does not annihilate Intersect")
	}
	if !a.Contains("x") || a.Contains("z") {
		t.Error("Contains is wrong")
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d", a.Len())
	}
}

// Property: Union and Intersect are commutative, associative, idempotent,
// and Intersect distributes over Union — i.e. Sets form a distributive
// lattice. These are the structural facts Section III leans on.
func TestSetLatticeProperties(t *testing.T) {
	mk := func(raw []string) Set { return NewSet(raw...) }
	commut := func(x, y []string) bool {
		a, b := mk(x), mk(y)
		return a.Union(b).Equal(b.Union(a)) && a.Intersect(b).Equal(b.Intersect(a))
	}
	if err := quick.Check(commut, nil); err != nil {
		t.Error(err)
	}
	assoc := func(x, y, z []string) bool {
		a, b, c := mk(x), mk(y), mk(z)
		return a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) &&
			a.Intersect(b.Intersect(c)).Equal(a.Intersect(b).Intersect(c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	distrib := func(x, y, z []string) bool {
		a, b, c := mk(x), mk(y), mk(z)
		return a.Intersect(b.Union(c)).Equal(a.Intersect(b).Union(a.Intersect(c)))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Error(err)
	}
	idem := func(x []string) bool {
		a := mk(x)
		return a.Union(a).Equal(a) && a.Intersect(a).Equal(a)
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Error(err)
	}
}

func TestSetImmutability(t *testing.T) {
	a := NewSet("a", "c")
	b := NewSet("b")
	_ = a.Union(b)
	_ = a.Intersect(b)
	if a.String() != "{a,c}" || b.String() != "{b}" {
		t.Error("set operations mutated their operands")
	}
}
