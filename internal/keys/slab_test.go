package keys

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// appendBinary writes the self-delimiting form InternerFromBinary reads
// (format-1 checkpoints embed it; nothing writes it any more) from the
// two arrays Prefix hands out.
func appendBinary(dst []byte, in *Interner) []byte {
	off, slab := in.Prefix(in.Len())
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(off)-1))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(slab)))
	for _, o := range off[1:] {
		dst = binary.LittleEndian.AppendUint32(dst, o)
	}
	return append(dst, slab...)
}

func TestInternerBinaryRoundTrip(t *testing.T) {
	in := NewInterner()
	ks := []string{"", "a", "aa", "a\x00b", "\xff\xfe", "vertex-000017", "a"}
	ids := make([]int32, len(ks))
	in.InternBatch(ks, ids)
	for i := 0; i < 300; i++ {
		in.Intern(fmt.Sprintf("bulk-%04d", i))
	}

	buf := appendBinary([]byte("prefix"), in)
	got, rest, err := InternerFromBinary(buf[len("prefix"):])
	if err != nil {
		t.Fatalf("InternerFromBinary: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decode", len(rest))
	}
	if got.Len() != in.Len() {
		t.Fatalf("decoded %d keys, want %d", got.Len(), in.Len())
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
			t.Fatalf("lookup %q after decode: id %d ok=%v, want %d", k, rid, ok, id)
		}
	}
	// The decoded interner must keep working as a live interner.
	if id := got.Intern("new-after-decode"); id != int32(in.Len()) {
		t.Fatalf("post-decode Intern assigned id %d, want %d", id, in.Len())
	}
}

func TestInternerBinaryEmpty(t *testing.T) {
	got, rest, err := InternerFromBinary(appendBinary(nil, NewInterner()))
	if err != nil || got.Len() != 0 || len(rest) != 0 {
		t.Fatalf("empty round trip: len=%d rest=%d err=%v", got.Len(), len(rest), err)
	}
	if id := got.Intern("x"); id != 0 {
		t.Fatalf("first id after empty decode = %d", id)
	}
}

func TestInternerFromBinaryRejectsDamage(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 20; i++ {
		in.Intern(fmt.Sprintf("k%02d", i))
	}
	clean := appendBinary(nil, in)

	cases := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:4] }},
		{"truncated-offsets", func(b []byte) []byte { return b[:8+3] }},
		{"truncated-slab", func(b []byte) []byte { return b[:len(b)-1] }},
		{"nonmonotone-offsets", func(b []byte) []byte { b[8] = 0xff; b[9] = 0xff; return b }},
		{"count-overflow", func(b []byte) []byte { b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0x7f; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mut(append([]byte(nil), clean...))
			if _, _, err := InternerFromBinary(buf); err == nil {
				t.Fatal("damaged interner dump decoded without error")
			}
		})
	}
}

func TestInternerFromBinaryRejectsDuplicateKeys(t *testing.T) {
	// Hand-build a dump whose slab holds the same key twice — a state a
	// real interner can never reach, so it must be flagged as corrupt.
	in := NewInterner()
	in.Intern("dup")
	buf := appendBinary(nil, in)
	// n=2, slab "dupdup", offsets 3,6.
	var forged []byte
	forged = append(forged, 2, 0, 0, 0, 6, 0, 0, 0, 3, 0, 0, 0, 6, 0, 0, 0)
	forged = append(forged, "dupdup"...)
	_ = buf
	if _, _, err := InternerFromBinary(forged); err == nil {
		t.Fatal("duplicate-key slab decoded without error")
	}
}
