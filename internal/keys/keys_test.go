package keys

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	s := New("c", "a", "b", "a", "c")
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	want := []string{"a", "b", "c"}
	for i, k := range want {
		if s.Key(i) != k {
			t.Errorf("Key(%d) = %q, want %q", i, s.Key(i), k)
		}
		if idx, ok := s.Index(k); !ok || idx != i {
			t.Errorf("Index(%q) = %d,%v", k, idx, ok)
		}
	}
	if s.Contains("z") {
		t.Error("Contains(z) should be false")
	}
}

func TestNewEmpty(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Errorf("empty set Len = %d", s.Len())
	}
	sub, idx := s.Select(All{})
	if sub.Len() != 0 || len(idx) != 0 {
		t.Error("selecting from empty set should be empty")
	}
}

func TestFromSortedValidates(t *testing.T) {
	if _, err := FromSorted([]string{"a", "b", "c"}); err != nil {
		t.Errorf("valid sorted slice rejected: %v", err)
	}
	if _, err := FromSorted([]string{"b", "a"}); err == nil {
		t.Error("unsorted slice accepted")
	}
	if _, err := FromSorted([]string{"a", "a"}); err == nil {
		t.Error("duplicate keys accepted")
	}
}

func TestKeysReturnsCopy(t *testing.T) {
	s := New("a", "b")
	ks := s.Keys()
	ks[0] = "mutated"
	if s.Key(0) != "a" {
		t.Error("Keys() exposed internal storage")
	}
}

func TestUnionIntersect(t *testing.T) {
	a := New("a", "b", "c")
	b := New("b", "c", "d")
	if got := a.Union(b); !got.Equal(New("a", "b", "c", "d")) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(New("b", "c")) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Intersect(New("z")); got.Len() != 0 {
		t.Errorf("disjoint Intersect = %v", got)
	}
	if !a.Union(New()).Equal(a) {
		t.Error("Union with empty should be identity")
	}
}

func TestEqual(t *testing.T) {
	if !New("a", "b").Equal(New("b", "a")) {
		t.Error("order of construction should not matter")
	}
	if New("a").Equal(New("a", "b")) || New("a").Equal(New("b")) {
		t.Error("unequal sets compared equal")
	}
}

func TestSelectRange(t *testing.T) {
	s := New("Artist|Kitten", "Genre|Electronic", "Genre|Pop", "Genre|Rock", "Writer|Chad Anderson")
	sub, idx := s.Select(Range{Lo: "Genre|A", Hi: "Genre|Z"})
	if !sub.Equal(New("Genre|Electronic", "Genre|Pop", "Genre|Rock")) {
		t.Errorf("range select = %v", sub)
	}
	wantIdx := []int32{1, 2, 3}
	for i, w := range wantIdx {
		if idx[i] != w {
			t.Errorf("origin idx = %v, want %v", idx, wantIdx)
			break
		}
	}
}

func TestSelectPrefix(t *testing.T) {
	s := New("Genre|Pop", "Writer|Barrett Rich", "Writer|Chloe Chaidez", "Type|LP")
	sub, _ := s.Select(Prefix{P: "Writer|"})
	if sub.Len() != 2 || !strings.HasPrefix(sub.Key(0), "Writer|") {
		t.Errorf("prefix select = %v", sub)
	}
}

func TestSelectRangeInclusiveEndpoints(t *testing.T) {
	s := New("a", "b", "c")
	sub, _ := s.Select(Range{Lo: "a", Hi: "c"})
	if sub.Len() != 3 {
		t.Errorf("inclusive range dropped endpoints: %v", sub)
	}
	sub, _ = s.Select(Range{Lo: "b", Hi: "b"})
	if sub.Len() != 1 || sub.Key(0) != "b" {
		t.Errorf("singleton range = %v", sub)
	}
}

func TestSelectList(t *testing.T) {
	s := New("a", "b", "c", "d")
	sub, idx := s.Select(NewList("d", "b", "nope"))
	if !sub.Equal(New("b", "d")) {
		t.Errorf("list select = %v", sub)
	}
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 3 {
		t.Errorf("list origin = %v", idx)
	}
}

func TestSelectNilSelectorMeansAll(t *testing.T) {
	s := New("a", "b")
	sub, _ := s.Select(nil)
	if !sub.Equal(s) {
		t.Error("nil selector should select everything")
	}
}

func TestPrefixUpperBound(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Writer|", "Writer}"},
		{"a", "b"},
		{"a\xff", "b"},
		{"\xff\xff", ""},
	}
	for _, c := range cases {
		if got := prefixUpperBound(c.in); got != c.want {
			t.Errorf("prefixUpperBound(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParse(t *testing.T) {
	s := New("Genre|Electronic", "Genre|Pop", "Writer|Barrett Rich", "Type|LP")

	sel, err := Parse("Genre|A : Genre|Z")
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := s.Select(sel)
	if sub.Len() != 2 {
		t.Errorf("parsed range selected %v", sub)
	}

	sel, err = Parse("Writer|*")
	if err != nil {
		t.Fatal(err)
	}
	sub, _ = s.Select(sel)
	if sub.Len() != 1 {
		t.Errorf("parsed prefix selected %v", sub)
	}

	sel, err = Parse(":")
	if err != nil {
		t.Fatal(err)
	}
	sub, _ = s.Select(sel)
	if sub.Len() != s.Len() {
		t.Error("':' should select all")
	}

	sel, err = Parse("Type|LP,Genre|Pop")
	if err != nil {
		t.Fatal(err)
	}
	sub, _ = s.Select(sel)
	if sub.Len() != 2 {
		t.Errorf("parsed list selected %v", sub)
	}

	sel, err = Parse("Type|LP")
	if err != nil {
		t.Fatal(err)
	}
	sub, _ = s.Select(sel)
	if sub.Len() != 1 || sub.Key(0) != "Type|LP" {
		t.Errorf("parsed exact key selected %v", sub)
	}

	for _, bad := range []string{"", "b : a", "x : "} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}

	if sel, err := Parse("*"); err != nil {
		t.Errorf("bare * should parse: %v", err)
	} else if _, ok := sel.(All); !ok {
		t.Errorf("bare * should mean All, got %T", sel)
	}
}

// Property: Select with All returns the set itself; Union is
// commutative and associative; Intersect(s, s) == s.
func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	mk := func(ks []string) *Set { return New(ks...) }

	selfAll := func(ks []string) bool {
		s := mk(ks)
		sub, idx := s.Select(All{})
		if !sub.Equal(s) {
			return false
		}
		return slices.IsSorted(idx)
	}
	if err := quick.Check(selfAll, cfg); err != nil {
		t.Error(err)
	}
	unionComm := func(x, y []string) bool {
		a, b := mk(x), mk(y)
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(unionComm, cfg); err != nil {
		t.Error(err)
	}
	interIdem := func(x []string) bool {
		a := mk(x)
		return a.Intersect(a).Equal(a)
	}
	if err := quick.Check(interIdem, cfg); err != nil {
		t.Error(err)
	}
	// Range selection returns exactly the keys its Match accepts.
	rangeExact := func(x []string, lo, hi string) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		s := mk(x)
		sel := Range{Lo: lo, Hi: hi}
		sub, _ := s.Select(sel)
		want := 0
		for _, k := range s.Keys() {
			if sel.Match(k) {
				want++
			}
		}
		return sub.Len() == want
	}
	if err := quick.Check(rangeExact, cfg); err != nil {
		t.Error(err)
	}
}

func TestStringTruncates(t *testing.T) {
	s := New("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")
	str := s.String()
	if !strings.Contains(str, "…(10)") {
		t.Errorf("String should truncate long sets: %q", str)
	}
	if short := New("x").String(); short != "[x]" {
		t.Errorf("short String = %q", short)
	}
}

// The reverse index is lazy: Index must work (and be consistent with
// the key order) on Sets produced by every constructor and set
// operation, including concurrent first use.
func TestLazyIndexConsistency(t *testing.T) {
	sets := []*Set{
		New("d", "b", "a", "c"),
		New("a", "x").Union(New("b", "y")),
		New("a", "b", "c").Intersect(New("b", "c", "d")),
	}
	if sub, _ := New("p", "q", "r").Select(Prefix{P: "q"}); true {
		sets = append(sets, sub)
	}
	for n, s := range sets {
		done := make(chan bool)
		for w := 0; w < 4; w++ {
			go func() {
				ok := true
				for i := 0; i < s.Len(); i++ {
					idx, present := s.Index(s.Key(i))
					ok = ok && present && idx == i
				}
				done <- ok
			}()
		}
		for w := 0; w < 4; w++ {
			if !<-done {
				t.Fatalf("set %d: lazy index inconsistent with key order", n)
			}
		}
		if _, present := s.Index("zzz-missing"); present {
			t.Fatalf("set %d: phantom key", n)
		}
	}
}

// Union and Intersect fast paths may return a shared Set; the result
// must still be correct and Equal must recognise shared backing in O(1).
func TestSetSharingFastPaths(t *testing.T) {
	s := New("a", "b", "c")
	empty := New()
	if got := s.Union(empty); got != s {
		t.Error("Union with empty should return the set itself")
	}
	if got := empty.Union(s); got != s {
		t.Error("empty.Union(s) should return s")
	}
	if got := s.Intersect(s); got != s {
		t.Error("self-intersection should return the set itself")
	}
	twin := New("a", "b", "c")
	if !s.Equal(twin) || !twin.Equal(s) {
		t.Error("equal-content sets must compare equal")
	}
	if got := s.Union(twin); !got.Equal(s) {
		t.Error("union of equal sets wrong")
	}
	if got := s.Intersect(twin); !got.Equal(s) {
		t.Error("intersection of equal sets wrong")
	}
	if s.Contains("zz") || !s.Contains("b") {
		t.Error("binary-search Contains wrong")
	}
}
