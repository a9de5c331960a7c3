package keys

import (
	"fmt"
	"hash/maphash"
)

// Interner slab serialization. What defines the id space is the slab
// itself plus the offset array; checkpoints store exactly those two
// (Prefix hands them out, InternerFromParts takes them back). The hash
// table and seed are NOT serialized: maphash seeds are process-local by
// design, so loading rebuilds the table by re-hashing each key under a
// fresh seed. Ids are preserved because they are defined by slab order,
// not by the table.

// Prefix returns the storage of the first n keys: off[:n+1] and the slab
// bytes they delimit. Both arrays are append-only, so the returned
// slices never change and may be read without the interner's lock while
// interning continues. They must not be written.
func (in *Interner) Prefix(n int) (off []uint32, slab []byte) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.off[: n+1 : n+1], in.slab[:in.off[n]:in.off[n]]
}

// InternerFromParts builds an interner over an offset array (off[0] = 0,
// one further entry per key) and the slab it delimits, taking ownership
// of both. The offsets are validated (monotone, ending exactly at the
// slab length) and the hash table is rebuilt under a fresh seed; a
// duplicate key in the slab — impossible in a well-formed dump — is
// reported as corruption.
func InternerFromParts(off []uint32, slab []byte) (*Interner, error) {
	n := len(off) - 1
	if n < 0 || off[0] != 0 {
		return nil, fmt.Errorf("keys: interner offsets do not start at 0")
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("keys: interner offsets not monotone at key %d", i)
		}
	}
	if int(off[n]) != len(slab) {
		return nil, fmt.Errorf("keys: interner offsets end at %d, slab is %d bytes", off[n], len(slab))
	}
	size := internerMinTable
	for n*3 > size*2 {
		size *= 2
	}
	in := &Interner{seed: maphash.MakeSeed(), slab: slab, off: off, tab: newInternTable(size), mask: uint32(size - 1)}
	for id := int32(0); id < int32(n); id++ {
		k := in.keyAt(id)
		_, slot, ok := in.lookupLocked(k)
		if ok {
			return nil, fmt.Errorf("keys: interner slab holds duplicate key %q", k)
		}
		in.tab[slot] = id
	}
	return in, nil
}
