package keys

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// The two-set union of every alignment (a product's shared dimension,
// an element-wise operation's key spaces, a view's universe growth)
// against New over both sides' keys: same keys, and each map sends every
// key of its side to itself in u.
func TestUnionAllMatchesUnion(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for trial := 0; trial < 200; trial++ {
		var sk, tk []string
		for i := 0; i < 30; i++ {
			if r.Intn(3) == 0 {
				sk = append(sk, key(i))
			}
			if r.Intn(3) == 0 {
				tk = append(tk, key(i))
			}
		}
		s, tt := New(sk...), New(tk...)
		u, pos, err := UnionAll([]*Set{s, tt})
		if err != nil {
			t.Fatal(err)
		}
		if want := New(append(sk, tk...)...); !u.Equal(want) {
			t.Fatalf("trial %d: union mismatch: %v vs %v", trial, u, want)
		}
		check := func(side *Set, pos []int32, name string) {
			for i := 0; i < side.Len(); i++ {
				want := side.Key(i)
				ui := i
				if pos != nil {
					ui = int(pos[i])
				}
				if ui >= u.Len() || u.Key(ui) != want {
					t.Fatalf("trial %d: %s pos[%d]=%d maps %q to %q", trial, name, i, ui, want, u.Key(ui))
				}
			}
		}
		check(s, pos[0], "s")
		check(tt, pos[1], "t")
	}
}

// The two-set cases an alignment meets most: an input that holds every
// key comes back as u itself, and a map that is the identity is nil.
func TestUnionAllFastPaths(t *testing.T) {
	union := func(s, t *Set) (*Set, []int32, []int32) {
		u, pos, _ := UnionAll([]*Set{s, t})
		return u, pos[0], pos[1]
	}
	s := New("a", "b", "c")
	// Equal sets: identity both sides, u is s itself.
	u, sp, tp := union(s, New("a", "b", "c"))
	if u != s || sp != nil || tp != nil {
		t.Errorf("equal sets should share: %v %v %v", u, sp, tp)
	}
	// Subset of s: u is s, t mapped.
	u, sp, tp = union(s, New("a", "c"))
	if u != s || sp != nil || !reflect.DeepEqual(tp, []int32{0, 2}) {
		t.Errorf("subset path: %v %v %v", u, sp, tp)
	}
	// Prefix subset with identity positions.
	u, sp, tp = union(s, New("a", "b"))
	if u != s || sp != nil || tp != nil {
		t.Errorf("prefix subset should be identity: %v %v %v", u, sp, tp)
	}
	// s subset of t.
	big := New("a", "b", "c", "d")
	u, sp, tp = union(s, big)
	if u != big || sp != nil || tp != nil {
		t.Errorf("s⊆t identity: %v %v %v", u, sp, tp)
	}
	// Pure suffix growth: s's positions stay the identity.
	u, sp, tp = union(s, New("x", "y"))
	if sp != nil || !reflect.DeepEqual(tp, []int32{3, 4}) {
		t.Errorf("suffix growth: %v %v", sp, tp)
	}
	if !reflect.DeepEqual(u.Keys(), []string{"a", "b", "c", "x", "y"}) {
		t.Errorf("suffix union: %v", u.Keys())
	}
	// Empty sides.
	if u, _, _ := union(s, New()); u != s {
		t.Error("t empty should return s")
	}
	if u, _, _ := union(New(), s); u != s {
		t.Error("s empty should return t")
	}
}

// An unbound Set's Index is a binary search: a hit is the key's place in
// the order, and a miss — before, between or past the keys — is (0, false).
func TestUnboundIndexFollowsKeyOrder(t *testing.T) {
	s := New("b", "d", "f", "h")
	want := map[string]int{"b": 0, "d": 1, "f": 2, "h": 3}
	for _, k := range []string{"a", "b", "c", "d", "f", "h", "z", ""} {
		i, ok := s.Index(k)
		if w, hit := want[k]; ok != hit || i != w {
			t.Errorf("Index(%q) = %d,%v, want %d,%v", k, i, ok, w, hit)
		}
	}
}

// UnionAll against New over every set's keys: the same union, and
// every position map sends each key to itself. Small alphabets make overlaps, duplicates of
// one set and empty sets all common.
func TestUnionAllMatchesRepeatedUnion(t *testing.T) {
	check := func(raw [][]uint8) bool {
		sets := make([]*Set, len(raw))
		for i, bs := range raw {
			ks := make([]string, len(bs))
			for j, b := range bs {
				ks[j] = fmt.Sprintf("k%02d", b%24)
			}
			sets[i] = New(ks...)
		}
		if len(sets) > 2 {
			sets[len(sets)-1] = sets[0] // one Set twice
			sets[len(sets)-2] = New()   // an empty one
		}
		u, pos, err := UnionAll(sets)
		if err != nil {
			t.Log(err)
			return false
		}
		var all []string
		for _, s := range sets {
			all = append(all, s.Keys()...)
		}
		want := New(all...)
		if !u.Equal(want) || len(pos) != len(sets) {
			t.Logf("union %v, want %v (%d maps for %d sets)", u, want, len(pos), len(sets))
			return false
		}
		for i, s := range sets {
			if pos[i] != nil && len(pos[i]) != s.Len() {
				t.Logf("set %d: %d positions for %d keys", i, len(pos[i]), s.Len())
				return false
			}
			for j := 0; j < s.Len(); j++ {
				p := j
				if pos[i] != nil {
					p = int(pos[i][j])
				}
				if p >= u.Len() || u.Key(p) != s.Key(j) {
					t.Logf("set %d: key %q mapped to %d", i, s.Key(j), p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if u, pos, err := UnionAll(nil); err != nil || u.Len() != 0 || len(pos) != 0 {
		t.Errorf("no sets: union %v, %d maps", u, len(pos))
	}
}

// What comes back shared: identical sets are their own union with no
// maps at all, an input that already holds every key IS the union, and a
// set whose keys are the first of the union's has the nil (identity) map.
func TestUnionAllSharesWhatItCan(t *testing.T) {
	s := New("a", "b", "c")
	if u, pos, _ := UnionAll([]*Set{s, New("a", "b", "c"), s}); u != s || pos[0] != nil || pos[1] != nil || pos[2] != nil {
		t.Errorf("identical sets: union %v maps %v", u, pos)
	}
	big := New("a", "b", "c", "d")
	u, pos, _ := UnionAll([]*Set{New("b", "d"), big, New("a", "b")})
	if u != big || !reflect.DeepEqual(pos, [][]int32{{1, 3}, nil, nil}) {
		t.Errorf("one input holds every key: union %v maps %v", u, pos)
	}
	u, pos, _ = UnionAll([]*Set{New("m"), New("a", "z"), New()})
	if !reflect.DeepEqual(u.Keys(), []string{"a", "m", "z"}) || !reflect.DeepEqual(pos, [][]int32{{1}, {0, 2}, nil}) {
		t.Errorf("disjoint sets: union %v maps %v", u, pos)
	}
}

// The sweep compares keys; it binds nothing, on its inputs or on the
// union it returns (a Set holds no reverse index of its own to build).
func TestUnionAllBuildsNoIndex(t *testing.T) {
	var a, b, c []string
	for i := 0; i < 300; i++ {
		switch k := fmt.Sprintf("k%04d", i); i % 3 {
		case 0:
			a = append(a, k)
		case 1:
			b = append(b, k)
		default:
			a, c = append(a, k), append(c, k)
		}
	}
	sets := []*Set{New(a...), New(b...), New(c...)}
	u, pos, err := UnionAll(sets)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 300 || pos[0] == nil || pos[1] == nil || pos[2] == nil {
		t.Fatalf("union of %d keys, maps %v", u.Len(), pos)
	}
	for i, s := range append(sets, u) {
		if s.Interned() {
			t.Errorf("set %d came out of UnionAll with a reverse index", i)
		}
	}
}

// A position is an int32: a union of more keys than one can number is
// refused, by the count alone.
func TestUnionAllRefusesMoreKeysThanAPositionNumbers(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot hold 2³¹ here")
	}
	most := math.MaxInt32
	if err := checkLen(most); err != nil {
		t.Errorf("2³¹−1 keys are refused: %v", err)
	}
	if err := checkLen(most + 1); !errors.Is(err, ErrTooManyKeys) {
		t.Errorf("2³¹ keys: %v, want ErrTooManyKeys", err)
	}
}
