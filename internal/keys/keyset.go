// Package keys implements the finite totally-ordered key sets of the
// paper's Definition I.1 (associative arrays are maps K1×K2 → V with K1,
// K2 finite and totally ordered), together with D4M-style sub-key
// selection ("Matlab-style notation to denote ranges of keys", Figure 1).
//
// Keys are strings under lexicographic order; a Set stores them sorted
// and deduplicated with a lazily built O(1) reverse index. Sets are
// immutable after construction and safe for concurrent readers.
package keys

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Set is a finite totally-ordered set of string keys.
//
// The map-based reverse index is built lazily on the first Index call:
// most intermediate Sets (Union/Intersect/Select results flowing
// through multiplication alignment) are only ever iterated or compared,
// and building a map per intermediate Set dominated allocation on the
// construction path. Membership tests use binary search on the sorted
// key slice, which needs no index at all.
//
// A Set that originates from an Interner can instead be Bound to an
// InternIndex: Index then resolves through the interner's shared hash
// table and a flat id→position array, and the map[string]int — a second
// full copy of the key bytes' hash structure, which for huge universes
// doubled the key-set memory — is never built.
type Set struct {
	keys     []string
	idxOnce  sync.Once
	index    map[string]int
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

// ensureIndex builds the reverse index exactly once. Safe for
// concurrent readers: Sets are immutable apart from this memoization.
func (s *Set) ensureIndex() {
	s.idxOnce.Do(func() {
		idx := make(map[string]int, len(s.keys))
		for i, k := range s.keys {
			idx[k] = i
		}
		s.index = idx
	})
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

// Bind attaches an interner-backed reverse index, replacing the lazy
// map[string]int for this Set. The binding must describe exactly this
// Set's keys (ix.Index(s.Key(i)) == i for all i, and misses for every
// other key); internal/stream maintains such bindings incrementally as
// its vertex universes grow. Binding is an atomic publish, so it is
// safe even when another goroutine is concurrently calling Index — but
// callers should bind before sharing the Set where possible.
func (s *Set) Bind(ix *InternIndex) {
	if ix != nil {
		s.interned.Store(ix)
	}
}

// Interned reports whether this Set resolves Index through an
// interner-backed binding (no per-Set map).
func (s *Set) Interned() bool { return s.interned.Load() != nil }

// Index returns the position of k and whether it is present. A Set
// bound to an interner resolves through the interner's hash table; the
// first call on an unbound Set builds its map reverse index. Repeated
// lookups are O(1) either way.
func (s *Set) Index(k string) (int, bool) {
	if ix := s.interned.Load(); ix != nil {
		return ix.Index(k)
	}
	s.ensureIndex()
	i, ok := s.index[k]
	return i, ok
}

// Contains reports membership by binary search — O(log n) without
// forcing the reverse index into existence.
func (s *Set) Contains(k string) bool {
	_, ok := s.IndexSorted(k)
	return ok
}

// IndexSorted returns the position of k by binary search — O(log n)
// without forcing the reverse index into existence; the right lookup for
// short-lived Sets (delta batches) indexed only a handful of times.
func (s *Set) IndexSorted(k string) (int, bool) {
	i := sort.SearchStrings(s.keys, k)
	return i, i < len(s.keys) && s.keys[i] == k
}

// Equal reports whether two sets hold the same keys in the same order
// (which, both being sorted, is plain set equality). Identical Sets and
// Sets sharing a backing slice (as returned by the Union/Intersect fast
// paths) compare in O(1).
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

// Union returns the ordered union of two sets. When one side is empty
// or the sets are equal, the other Set is returned as-is (Sets are
// immutable, so sharing is safe).
func (s *Set) Union(t *Set) *Set {
	if len(s.keys) == 0 {
		return t
	}
	if len(t.keys) == 0 || s.Equal(t) {
		return s
	}
	out := make([]string, 0, len(s.keys)+len(t.keys))
	i, j := 0, 0
	for i < len(s.keys) && j < len(t.keys) {
		switch {
		case s.keys[i] < t.keys[j]:
			out = append(out, s.keys[i])
			i++
		case s.keys[i] > t.keys[j]:
			out = append(out, t.keys[j])
			j++
		default:
			out = append(out, s.keys[i])
			i++
			j++
		}
	}
	out = append(out, s.keys[i:]...)
	out = append(out, t.keys[j:]...)
	return fromSortedUnique(out)
}

// Intersect returns the ordered intersection of two sets by a sorted
// two-pointer merge — O(n+m) with no hashing. Equal sets (including
// shared-backing ones) intersect to themselves in O(1).
func (s *Set) Intersect(t *Set) *Set {
	if s.Equal(t) {
		return s
	}
	var out []string
	i, j := 0, 0
	for i < len(s.keys) && j < len(t.keys) {
		switch {
		case s.keys[i] < t.keys[j]:
			i++
		case s.keys[i] > t.keys[j]:
			j++
		default:
			out = append(out, s.keys[i])
			i++
			j++
		}
	}
	return fromSortedUnique(out)
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
