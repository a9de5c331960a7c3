package keys

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Growth entry points for delta-batch merges.
//
// The batch constructors (New, FromSorted) re-sort or re-validate the
// whole key slice; a maintained adjacency view merges small key batches
// thousands of times, so these paths grow an existing Set without
// re-sorting the keys already present.

// UnionOffsets returns u = s ∪ t together with position maps into u:
// sPos[i] is the index in u of s.Key(i), tPos[j] the index in u of
// t.Key(j). A nil position map means the identity (that side's keys
// occupy the same indices in u) — the common steady-state case where a
// delta batch introduces no new keys, which costs only the subset check.
//
// The maps are strictly increasing, which is exactly what sparse.Embed
// needs to remap CSR coordinates without re-sorting rows. A position is
// an int32 — the index type of internal/sparse, whose kernels refuse a
// space of more than 2³¹−1 keys by its dimension, so a map into a union
// that large is never read.
func (s *Set) UnionOffsets(t *Set) (u *Set, sPos, tPos []int32) {
	if t.Len() == 0 || s.Equal(t) {
		return s, nil, nil
	}
	if s.Len() == 0 {
		return t, nil, nil
	}
	// Subset fast paths: when one side's keys form a prefix-aligned
	// subset the union is the other side verbatim.
	if sub, pos := subsetPositions(t, s); sub {
		if identity(pos) {
			pos = nil
		}
		return s, nil, pos
	}
	if sub, pos := subsetPositions(s, t); sub {
		if identity(pos) {
			pos = nil
		}
		return t, pos, nil
	}
	out := make([]string, 0, len(s.keys)+len(t.keys))
	sPos = make([]int32, len(s.keys))
	tPos = make([]int32, len(t.keys))
	i, j := 0, 0
	for i < len(s.keys) && j < len(t.keys) {
		n := int32(len(out))
		switch {
		case s.keys[i] < t.keys[j]:
			sPos[i] = n
			out = append(out, s.keys[i])
			i++
		case s.keys[i] > t.keys[j]:
			tPos[j] = n
			out = append(out, t.keys[j])
			j++
		default:
			sPos[i], tPos[j] = n, n
			out = append(out, s.keys[i])
			i++
			j++
		}
	}
	for ; i < len(s.keys); i++ {
		sPos[i] = int32(len(out))
		out = append(out, s.keys[i])
	}
	for ; j < len(t.keys); j++ {
		tPos[j] = int32(len(out))
		out = append(out, t.keys[j])
	}
	if identity(sPos) {
		sPos = nil
	}
	return fromSortedUnique(out), sPos, tPos
}

// UnionAll returns u, the union of every set, with one position map per
// input: pos[i][j] is the index in u of sets[i].Key(j); nil means the
// identity, as UnionOffsets has it. One k-way sweep over the sorted key
// slices finds every position — k string comparisons per key of u — and
// u's one key slice is filled from them, exact size; no Set's reverse
// index is built or consulted. When an input already holds every key,
// that Set itself is u. This is the alignment of a gather: the shards of
// a partitioned array, or an array's row and column keys, brought into
// one key space (sparse.ConcatRows renumbers through the maps). A union
// of more keys than a position can number is refused (ErrTooManyKeys).
func UnionAll(sets []*Set) (u *Set, pos [][]int32, err error) {
	pos = make([][]int32, len(sets))
	if len(sets) == 0 {
		return fromSortedUnique(nil), pos, nil
	}
	same := true
	for _, s := range sets[1:] {
		same = same && sets[0].Equal(s)
	}
	if same {
		return sets[0], pos, nil
	}
	heads := make([]int, len(sets))
	for i, s := range sets {
		pos[i] = make([]int32, len(s.keys))
	}
	n := 0
	ties := make([]int, 0, len(sets)) // the sets whose head is the smallest key
	for {
		ties = ties[:0]
		var least string
		for i, s := range sets {
			if heads[i] == len(s.keys) {
				continue
			}
			k := s.keys[heads[i]]
			switch c := strings.Compare(k, least); {
			case len(ties) == 0 || c < 0:
				least, ties = k, append(ties[:0], i)
			case c == 0:
				ties = append(ties, i)
			}
		}
		if len(ties) == 0 {
			break
		}
		for _, i := range ties {
			pos[i][heads[i]] = int32(n)
			heads[i]++
		}
		n++
	}
	if err := checkLen(n); err != nil {
		return nil, nil, err
	}
	for i, s := range sets {
		if len(s.keys) == n {
			u = s
		}
		// Strictly increasing from 0: the last key in place means all are.
		if last := len(s.keys) - 1; last < 0 || int(pos[i][last]) == last {
			pos[i] = nil
		}
	}
	if u == nil {
		out := make([]string, n)
		for i, s := range sets {
			if pos[i] == nil {
				copy(out, s.keys)
				continue
			}
			for j, p := range pos[i] {
				out[p] = s.keys[j]
			}
		}
		u = fromSortedUnique(out)
	}
	return u, pos, nil
}

// ErrTooManyKeys is wrapped by the refusal to number more keys than an
// int32 position holds — the cap of the interner's ids and of every
// index in internal/sparse.
var ErrTooManyKeys = errors.New("exceed the 2³¹−1 (2147483647) an int32 position holds")

func checkLen(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("keys: %d keys %w", n, ErrTooManyKeys)
	}
	return nil
}

// PositionsIn returns, for each key of s, its index in super — or
// ok=false if any key of s is absent. Positions are strictly increasing;
// nil positions with ok=true mean the identity (s equals super).
//
// Unlike UnionOffsets' merge sweep, this resolves through super's cached
// reverse index: O(len(s)) map hits after the first call on super. It is
// the steady-state path for delta batches resolving against a large,
// long-lived key set (the incidence log's vertex columns, a maintained
// adjacency's key space), where the super set object survives thousands
// of batches and the walk over its full length would dominate.
func (s *Set) PositionsIn(super *Set) ([]int32, bool) {
	if s.Equal(super) {
		return nil, true
	}
	if s.Len() > super.Len() {
		return nil, false
	}
	pos := make([]int32, len(s.keys))
	for i, k := range s.keys {
		j, ok := super.Index(k)
		if !ok {
			return nil, false
		}
		pos[i] = int32(j)
	}
	if identity(pos) {
		pos = nil
	}
	return pos, true
}

// subsetPositions reports whether every key of sub is present in super,
// and if so where: pos[i] is the index in super of sub.Key(i).
func subsetPositions(sub, super *Set) (bool, []int32) {
	if sub.Len() > super.Len() {
		return false, nil
	}
	pos := make([]int32, len(sub.keys))
	j := 0
	for i, k := range sub.keys {
		for j < len(super.keys) && super.keys[j] < k {
			j++
		}
		if j >= len(super.keys) || super.keys[j] != k {
			return false, nil
		}
		pos[i] = int32(j)
		j++
	}
	return true, pos
}

func identity(pos []int32) bool {
	for i, p := range pos {
		if int(p) != i {
			return false
		}
	}
	return true
}
