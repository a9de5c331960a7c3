// Package keys implements the finite totally-ordered key sets of the
// paper's Definition I.1 (associative arrays are maps K1×K2 → V with K1,
// K2 finite and totally ordered), together with D4M-style sub-key
// selection ("Matlab-style notation to denote ranges of keys", Figure 1).
//
// Keys are strings under lexicographic order; a Set stores them sorted
// and deduplicated, and that slice is all it keeps beside an optional
// interner binding. Every alignment of Sets is one UnionAll. Sets are
// immutable after construction and safe for concurrent readers.
package keys

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Set is a finite totally-ordered set of string keys: the sorted key
// slice, and nothing else but an optional binding to an InternIndex.
// Index binary-searches the slice — no reverse index is ever built — or,
// for a Set bound to an interner (a view's universe, a checkpoint's, a
// graph's sides: every Set a served read looks up), resolves through the
// interner's shared hash table and a flat id→position array.
type Set struct {
	keys     []string
	interned atomic.Pointer[InternIndex]
}

// New builds a Set from arbitrary keys, sorting and deduplicating.
func New(ks ...string) *Set {
	sorted := make([]string, len(ks))
	copy(sorted, ks)
	sort.Strings(sorted)
	out := sorted[:0]
	for i, k := range sorted {
		if i == 0 || k != sorted[i-1] {
			out = append(out, k)
		}
	}
	return fromSortedUnique(out)
}

// FromSorted wraps an already-sorted, duplicate-free slice, validating
// the invariant. The slice is retained (not copied): callers must not
// mutate it afterwards.
func FromSorted(ks []string) (*Set, error) {
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			return nil, fmt.Errorf("keys: slice not strictly sorted at %d: %q >= %q", i, ks[i-1], ks[i])
		}
	}
	return fromSortedUnique(ks), nil
}

func fromSortedUnique(ks []string) *Set {
	return &Set{keys: ks}
}

// Len returns the number of keys.
func (s *Set) Len() int { return len(s.keys) }

// Key returns the i-th key in order.
func (s *Set) Key(i int) string { return s.keys[i] }

// Keys returns a copy of the ordered key slice.
func (s *Set) Keys() []string {
	out := make([]string, len(s.keys))
	copy(out, s.keys)
	return out
}

// Bind attaches an interner-backed reverse index, replacing the binary
// search for this Set, and reads every key back from the interner
// (KeysByPos): a bound Set's keys view the interner's slab as it is at
// binding, so no bound Set keeps alive a slab array that interning has
// since moved away from — a growing vertex universe, rebound at every
// growth, holds the live slab and nothing older. The binding must
// describe exactly this Set's keys (ix.Index(s.Key(i)) == i for all i,
// and misses for every other key); internal/stream maintains such
// bindings incrementally as its vertex universes grow. Bind rewrites the
// key slice in place, so bind a Set before sharing it.
func (s *Set) Bind(ix *InternIndex) {
	if ix != nil {
		ix.In.KeysByPos(ix.Pos, s.keys)
		s.interned.Store(ix)
	}
}

// Interned reports whether this Set resolves Index through an
// interner-backed binding.
func (s *Set) Interned() bool { return s.interned.Load() != nil }

// Index returns the position of k and whether it is present: through
// the interner when the Set is bound to one, in O(1), and by binary
// search otherwise, in O(log n).
func (s *Set) Index(k string) (int, bool) {
	if ix := s.interned.Load(); ix != nil {
		return ix.Index(k)
	}
	i := sort.SearchStrings(s.keys, k)
	if i < len(s.keys) && s.keys[i] == k {
		return i, true
	}
	return 0, false
}

// Equal reports whether two sets hold the same keys in the same order
// (which, both being sorted, is plain set equality). Identical Sets and
// Sets sharing a backing slice compare in O(1).
func (s *Set) Equal(t *Set) bool {
	if s == t {
		return true
	}
	if s.Len() != t.Len() {
		return false
	}
	if len(s.keys) > 0 && &s.keys[0] == &t.keys[0] {
		return true
	}
	for i, k := range s.keys {
		if t.keys[i] != k {
			return false
		}
	}
	return true
}

// Select applies a Selector, returning the selected sub-Set and, for
// each selected key, its index in the original Set. The returned indices
// are strictly increasing.
func (s *Set) Select(sel Selector) (*Set, []int32) {
	if sel == nil {
		sel = All{}
	}
	lo, hi, prefixed := sel.bounds()
	var picked []string
	var origin []int32
	start := 0
	if prefixed {
		start = sort.SearchStrings(s.keys, lo)
	}
	for i := start; i < len(s.keys); i++ {
		k := s.keys[i]
		if prefixed && hi != "" && k >= hi {
			break
		}
		if sel.Match(k) {
			picked = append(picked, k)
			origin = append(origin, int32(i))
		}
	}
	return fromSortedUnique(picked), origin
}

// String renders up to eight keys for debugging.
func (s *Set) String() string {
	const maxShow = 8
	shown := s.keys
	suffix := ""
	if len(shown) > maxShow {
		shown = shown[:maxShow]
		suffix = fmt.Sprintf(",…(%d)", s.Len())
	}
	return "[" + strings.Join(shown, ",") + suffix + "]"
}
