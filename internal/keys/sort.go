package keys

import (
	"slices"
	"strings"
)

// SortKeys sorts ks ascending and moves ids with them: the id beside a key
// before the sort is beside it after. It is the sort of the keys an
// interner gave ids to — SortedView's, and a maintained view's when its
// universe grows. Each key is compared first by its first 8 bytes, read
// big-endian and zero-padded into a uint64 that is sorted beside it, and
// by strings.Compare only when those prefixes tie; the keys' bytes live
// wherever the interner's slab put them, so most comparisons no longer
// go there. The order is strings.Compare's: a shorter key whose padding
// ties a longer one's bytes ties on the prefix and is ordered by the
// string comparison.
func SortKeys(ks []string, ids []int32) {
	type entry struct {
		pre uint64
		key string
		id  int32
	}
	es := make([]entry, len(ks))
	for i, k := range ks {
		es[i] = entry{keyPrefix(k), k, ids[i]}
	}
	slices.SortFunc(es, func(a, b entry) int {
		switch {
		case a.pre < b.pre:
			return -1
		case a.pre > b.pre:
			return 1
		}
		return strings.Compare(a.key, b.key)
	})
	for i, e := range es {
		ks[i], ids[i] = e.key, e.id
	}
}

// keyPrefix is k's first 8 bytes as a big-endian uint64, zero-padded.
func keyPrefix(k string) uint64 {
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(k) {
			p |= uint64(k[i])
		}
	}
	return p
}
