package keys

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestUnionOffsetsMatchesUnion(t *testing.T) {
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
		u, sPos, tPos := s.UnionOffsets(tt)
		if !u.Equal(s.Union(tt)) {
			t.Fatalf("trial %d: union mismatch: %v vs %v", trial, u, s.Union(tt))
		}
		check := func(side *Set, pos []int, name string) {
			for i := 0; i < side.Len(); i++ {
				want := side.Key(i)
				ui := i
				if pos != nil {
					ui = pos[i]
				}
				if ui >= u.Len() || u.Key(ui) != want {
					t.Fatalf("trial %d: %s pos[%d]=%d maps %q to %q", trial, name, i, ui, want, u.Key(ui))
				}
			}
		}
		check(s, sPos, "s")
		check(tt, tPos, "t")
	}
}

func TestUnionOffsetsFastPaths(t *testing.T) {
	s := New("a", "b", "c")
	// Equal sets: identity both sides, u is s itself.
	u, sp, tp := s.UnionOffsets(New("a", "b", "c"))
	if u != s || sp != nil || tp != nil {
		t.Errorf("equal sets should share: %v %v %v", u, sp, tp)
	}
	// Subset of s: u is s, t mapped.
	u, sp, tp = s.UnionOffsets(New("a", "c"))
	if u != s || sp != nil || !reflect.DeepEqual(tp, []int{0, 2}) {
		t.Errorf("subset path: %v %v %v", u, sp, tp)
	}
	// Prefix subset with identity positions.
	u, sp, tp = s.UnionOffsets(New("a", "b"))
	if u != s || sp != nil || tp != nil {
		t.Errorf("prefix subset should be identity: %v %v %v", u, sp, tp)
	}
	// s subset of t.
	big := New("a", "b", "c", "d")
	u, sp, tp = s.UnionOffsets(big)
	if u != big || sp != nil || tp != nil {
		t.Errorf("s⊆t identity: %v %v %v", u, sp, tp)
	}
	// Pure suffix growth: s's positions stay the identity.
	u, sp, tp = s.UnionOffsets(New("x", "y"))
	if sp != nil || !reflect.DeepEqual(tp, []int{3, 4}) {
		t.Errorf("suffix growth: %v %v", sp, tp)
	}
	if !reflect.DeepEqual(u.Keys(), []string{"a", "b", "c", "x", "y"}) {
		t.Errorf("suffix union: %v", u.Keys())
	}
	// Empty sides.
	if u, _, _ := s.UnionOffsets(New()); u != s {
		t.Error("t empty should return s")
	}
	if u, _, _ := New().UnionOffsets(s); u != s {
		t.Error("s empty should return t")
	}
}

func TestPositionsIn(t *testing.T) {
	super := New("a", "c", "e", "g", "i")
	sub := New("c", "g")
	pos, ok := sub.PositionsIn(super)
	if !ok || len(pos) != 2 || pos[0] != 1 || pos[1] != 3 {
		t.Fatalf("positions %v ok=%v", pos, ok)
	}
	if pos, ok := super.PositionsIn(super); !ok || pos != nil {
		t.Errorf("identity should be nil positions, got %v ok=%v", pos, ok)
	}
	if _, ok := New("c", "x").PositionsIn(super); ok {
		t.Error("missing key resolved")
	}
	if _, ok := super.PositionsIn(sub); ok {
		t.Error("superset resolved into subset")
	}
	// Prefix-aligned subset is still non-identity when shorter.
	if pos, ok := New("a", "c").PositionsIn(super); !ok || pos != nil {
		t.Errorf("prefix subset: %v ok=%v", pos, ok)
	}
}

func TestIndexSortedAgreesWithIndex(t *testing.T) {
	s := New("b", "d", "f", "h")
	for _, k := range []string{"a", "b", "c", "d", "h", "z"} {
		i1, ok1 := s.Index(k)
		i2, ok2 := s.IndexSorted(k)
		if ok1 != ok2 || (ok1 && i1 != i2) {
			t.Errorf("key %q: Index (%d,%v) vs IndexSorted (%d,%v)", k, i1, ok1, i2, ok2)
		}
	}
}
