package keys

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// SortKeys orders keys as strings.Compare does, whatever their prefixes:
// keys shorter than the 8-byte prefix (whose zero padding ties a real NUL),
// keys that share it and differ past it, bytes at and above 0x80, and ids
// that move with their keys.
func TestSortKeysIsStringOrder(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	alphabet := []string{"", "\x00", "\x01", "a", "b", "\x7f", "\x80", "\xff"}
	for round := 0; round < 200; round++ {
		seen := map[string]bool{}
		var ks []string
		for len(ks) < 1+r.Intn(60) {
			var b strings.Builder
			if r.Intn(2) == 0 {
				b.WriteString("prefix12") // a whole prefix in common
			}
			for n := r.Intn(12); n > 0; n-- {
				b.WriteString(alphabet[r.Intn(len(alphabet))])
			}
			if k := b.String(); !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
		ids := make([]int32, len(ks))
		byID := map[int32]string{}
		for i, k := range ks {
			ids[i] = int32(1000 + i)
			byID[ids[i]] = k
		}
		want := slices.Clone(ks)
		slices.SortFunc(want, strings.Compare)
		SortKeys(ks, ids)
		if !slices.Equal(ks, want) {
			t.Fatalf("round %d: sorted %q, want %q", round, ks, want)
		}
		for i, id := range ids {
			if byID[id] != ks[i] {
				t.Fatalf("round %d: id %d sits beside %q, it was %q's", round, id, ks[i], byID[id])
			}
		}
	}
}

// What a fold's universe sync sorts: the keys of 16,384 new vertices,
// named as the R-MAT generator names them and interned in arrival order,
// each beside its id — sorted by strings.Compare as growSide did, and by
// SortKeys.
func BenchmarkSortKeys(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	in := NewInterner()
	var base []string
	var baseIDs []int32
	for _, v := range r.Perm(1 << 14) {
		k := fmt.Sprintf("v%06d", v*3)
		baseIDs = append(baseIDs, in.Intern(k))
		base = append(base, in.Key(baseIDs[len(baseIDs)-1]))
	}
	b.Run("strings.Compare", func(b *testing.B) {
		type idKey struct {
			id  int32
			key string
		}
		for i := 0; i < b.N; i++ {
			es := make([]idKey, len(base))
			for j := range es {
				es[j] = idKey{baseIDs[j], base[j]}
			}
			slices.SortFunc(es, func(a, b idKey) int { return strings.Compare(a.key, b.key) })
		}
	})
	b.Run("SortKeys", func(b *testing.B) {
		ks, ids := make([]string, len(base)), make([]int32, len(base))
		for i := 0; i < b.N; i++ {
			copy(ks, base)
			copy(ids, baseIDs)
			SortKeys(ks, ids)
		}
	})
}
