package keys

import (
	"fmt"
	"slices"
	"testing"
)

// fromPrefix rebuilds an interner from copies of the two arrays Prefix
// hands out — what a checkpoint stores and InternerFromParts takes back.
func fromPrefix(in *Interner) (*Interner, error) {
	off, slab := in.Prefix(in.Len())
	return InternerFromParts(slices.Clone(off), slices.Clone(slab))
}

func TestInternerPartsRoundTrip(t *testing.T) {
	in := NewInterner()
	ks := []string{"", "a", "aa", "a\x00b", "\xff\xfe", "vertex-000017", "a"}
	ids := make([]int32, len(ks))
	in.InternBatch(ks, ids)
	for i := 0; i < 300; i++ {
		in.Intern(fmt.Sprintf("bulk-%04d", i))
	}

	got, err := fromPrefix(in)
	if err != nil {
		t.Fatalf("InternerFromParts: %v", err)
	}
	if got.Len() != in.Len() {
		t.Fatalf("rebuilt %d keys, want %d", got.Len(), in.Len())
	}
	// Ids must be preserved exactly: same key at every id, resolvable
	// through the rebuilt (fresh-seed) hash table.
	for id := int32(0); id < int32(in.Len()); id++ {
		k := in.Key(id)
		if got.Key(id) != k {
			t.Fatalf("id %d: key %q became %q", id, k, got.Key(id))
		}
		rid, ok := got.Lookup(k)
		if !ok || rid != id {
			t.Fatalf("lookup %q after the rebuild: id %d ok=%v, want %d", k, rid, ok, id)
		}
	}
	// The rebuilt interner must keep working as a live interner.
	if id := got.Intern("new-after-rebuild"); id != int32(in.Len()) {
		t.Fatalf("Intern after the rebuild assigned id %d, want %d", id, in.Len())
	}
	// A prefix is an interner of its own: the first n ids and no more.
	off, slab := in.Prefix(5)
	head, err := InternerFromParts(slices.Clone(off), slices.Clone(slab))
	if err != nil || head.Len() != 5 || head.Key(4) != "\xff\xfe" {
		t.Fatalf("prefix of 5: len %d, err %v", head.Len(), err)
	}
	if _, ok := head.Lookup("vertex-000017"); ok {
		t.Fatal("a prefix of 5 resolves the sixth key")
	}
}

func TestInternerPartsEmpty(t *testing.T) {
	got, err := fromPrefix(NewInterner())
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty round trip: len=%d err=%v", got.Len(), err)
	}
	if id := got.Intern("x"); id != 0 {
		t.Fatalf("first id after an empty rebuild = %d", id)
	}
}

func TestInternerFromPartsRejectsDamage(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 20; i++ {
		in.Intern(fmt.Sprintf("k%02d", i))
	}
	cases := []struct {
		name string
		mut  func(off []uint32, slab []byte) ([]uint32, []byte)
	}{
		{"empty-offsets", func(off []uint32, slab []byte) ([]uint32, []byte) { return nil, slab }},
		{"first-offset-nonzero", func(off []uint32, slab []byte) ([]uint32, []byte) { off[0] = 1; return off, slab }},
		{"nonmonotone-offsets", func(off []uint32, slab []byte) ([]uint32, []byte) { off[7] = off[9]; return off, slab }},
		{"offsets-end-before-slab", func(off []uint32, slab []byte) ([]uint32, []byte) { return off[:len(off)-1], slab }},
		{"offsets-end-after-slab", func(off []uint32, slab []byte) ([]uint32, []byte) { return off, slab[:len(slab)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off, slab := in.Prefix(in.Len())
			if _, err := InternerFromParts(tc.mut(slices.Clone(off), slices.Clone(slab))); err == nil {
				t.Fatal("damaged interner parts were accepted")
			}
		})
	}
}

func TestInternerFromPartsRejectsDuplicateKeys(t *testing.T) {
	// A slab that holds the same key twice — a state a real interner can
	// never reach, so it must be flagged as corrupt.
	if _, err := InternerFromParts([]uint32{0, 3, 6}, []byte("dupdup")); err == nil {
		t.Fatal("duplicate-key slab accepted")
	}
}
