package keys

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// UnionAll returns u, the union of every set, with one position map per
// input: pos[i][j] is the index in u of sets[i].Key(j); nil means the
// identity (that input's keys occupy the same indices in u). The maps are
// strictly increasing, which is what sparse.Embed needs to remap CSR
// coordinates without re-sorting rows. One k-way sweep over the sorted
// key slices finds every position — k string comparisons per key of u —
// and u's one key slice is filled from them, exact size; no Set's reverse
// index is built or consulted. When an input already holds every key,
// that Set itself is u.
//
// Every alignment of key sets is this one: a product's shared dimension,
// an element-wise operation's two key spaces, a view's universe grown by
// a batch's new keys, the shards of a partitioned array. A union of more
// keys than a position can number is refused (ErrTooManyKeys).
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
