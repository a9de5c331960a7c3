package keys

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// Interner is a slab-backed string-key interner: every distinct key is
// stored once as raw bytes in one append-only slab and assigned a dense
// int32 id in insertion order. Resolution goes through an open-addressed
// hash table over the key BYTES — there are no per-key string header
// allocations, no map[string]int, and the hash treats keys as opaque
// byte strings (embedded NUL, 0xff, shared prefixes, and non-UTF-8
// sequences are all just bytes).
//
// Ids are STABLE: once assigned, an id never changes, regardless of how
// many keys are interned later — which is what lets a maintained
// adjacency view cache id→position maps across thousands of delta
// batches. Sorted order is a VIEW derived on demand (SortedView, or the
// incremental maps internal/stream maintains), never a property of the
// ids themselves.
//
// Concurrency: writes (InternBatch) are serialized by an
// internal mutex; reads (Lookup, Key, Len) take a read lock, so bound
// Sets handed to snapshot readers can resolve keys while ingest keeps
// interning. Batch entry points amortize the lock to one acquisition
// per batch.
type Interner struct {
	mu   sync.RWMutex
	seed maphash.Seed
	slab []byte   // all key bytes, back to back
	off  []uint32 // key i occupies slab[off[i]:off[i+1]]; len = n+1
	tab  []int32  // open-addressed table of ids; -1 = empty
	mask uint32   // len(tab)-1; len(tab) is a power of two
}

const internerMinTable = 64

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{seed: maphash.MakeSeed(), off: make([]uint32, 1, 1024)}
	in.tab = newInternTable(internerMinTable)
	in.mask = internerMinTable - 1
	return in
}

func newInternTable(size int) []int32 {
	tab := make([]int32, size)
	for i := range tab {
		tab[i] = -1
	}
	return tab
}

// Len returns the number of interned keys (== the next id to be
// assigned).
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.off) - 1
}

// InternerStats is a point-in-time snapshot of an interner's memory
// footprint, cheap enough to poll from a metrics scrape.
type InternerStats struct {
	Keys      int // distinct keys interned
	SlabBytes int // cumulative key bytes in the append-only slab
	TableSlot int // open-addressed table capacity (power of two)
}

// Stats reports the interner's current size under one read lock.
func (in *Interner) Stats() InternerStats {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return InternerStats{
		Keys:      len(in.off) - 1,
		SlabBytes: len(in.slab),
		TableSlot: len(in.tab),
	}
}

// hashKey hashes the key bytes through hash/maphash with this
// interner's random per-instance seed — the same flooding protection
// Go's built-in map hash provides (an unseeded hash would let an
// attacker-controlled vertex vocabulary drive every probe chain to
// O(n) with precomputed collisions), byte-oriented so adversarial keys
// (NUL, 0xff, unicode, long shared prefixes) hash like any others.
func (in *Interner) hashKey(k string) uint64 {
	return maphash.String(in.seed, k)
}

// keyAt returns key id as a zero-copy string view into the slab. Slab
// bytes are immutable once written (appends may move the slab to a new
// backing array, but the old array keeps the valid prefix alive for any
// outstanding views), so the returned string is valid forever.
func (in *Interner) keyAt(id int32) string {
	lo, hi := in.off[id], in.off[id+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&in.slab[lo], int(hi-lo))
}

// Key returns the key with the given id. The string shares the slab's
// backing (zero-copy) and must be treated as immutable.
func (in *Interner) Key(id int32) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.keyAt(id)
}

// KeysByPos stores the key of every id that has a position — pos[id] in
// [0, len(dst)) — at dst[pos[id]]: the keys of an id → position map laid
// out by position, read under one lock acquisition rather than one Key
// call per id. Ids without a position are skipped. The strings share the
// slab's backing, as Key's do.
func (in *Interner) KeysByPos(pos []int32, dst []string) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	for id, p := range pos {
		if p >= 0 && int(p) < len(dst) {
			dst[p] = in.keyAt(int32(id))
		}
	}
}

// lookupLocked probes for k; returns (id, true) when present, or the
// insertion slot and false.
func (in *Interner) lookupLocked(k string) (int32, uint32, bool) {
	slot := uint32(in.hashKey(k)) & in.mask
	for {
		id := in.tab[slot]
		if id < 0 {
			return 0, slot, false
		}
		if in.keyAt(id) == k {
			return id, slot, true
		}
		slot = (slot + 1) & in.mask
	}
}

// Lookup resolves k without interning it.
func (in *Interner) Lookup(k string) (int32, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	id, _, ok := in.lookupLocked(k)
	return id, ok
}

// internLocked adds k (which must be absent, at the given free slot)
// and returns its new id, or refuses it (internable) and changes nothing.
func (in *Interner) internLocked(k string, slot uint32) (int32, error) {
	if err := internable(int(in.off[len(in.off)-1]), len(k), len(in.off)); err != nil {
		return 0, err
	}
	id := int32(len(in.off) - 1)
	in.slab = append(in.slab, k...)
	in.off = append(in.off, uint32(len(in.slab)))
	in.tab[slot] = id
	// Grow at 2/3 load so probe chains stay short.
	if n := len(in.off) - 1; n*3 > len(in.tab)*2 {
		in.growLocked()
	}
	return id, nil
}

// internable refuses the n-th key, k bytes long, of an interner whose slab
// ends at offset slab: past the 4 GiB a uint32 offset reaches a wrapped
// offset would conflate distinct keys, and past 2³¹−1 keys an id is not
// an int32. Either refusal wraps ErrTooManyKeys.
func internable(slab, k, n int) error {
	if slab+k > math.MaxUint32 {
		return slabFull{slab, k}
	}
	return checkLen(n)
}

// slabFull is a key that would carry the slab past 4 GiB.
type slabFull struct{ slab, k int }

func (e slabFull) Error() string {
	return fmt.Sprintf("keys: a %d-byte key would carry the interner's %d key bytes past the 4 GiB its offsets reach", e.k, e.slab)
}

func (slabFull) Is(target error) bool { return target == ErrTooManyKeys }

func (in *Interner) growLocked() {
	tab := newInternTable(2 * len(in.tab))
	mask := uint32(len(tab) - 1)
	for _, id := range in.tab {
		if id < 0 {
			continue
		}
		slot := uint32(in.hashKey(in.keyAt(id))) & mask
		for tab[slot] >= 0 {
			slot = (slot + 1) & mask
		}
		tab[slot] = id
	}
	in.tab, in.mask = tab, mask
}

// InternBatch resolves each ks[i] into ids[i], interning absent keys,
// under one lock acquisition. A key the interner cannot number
// (internable) ends the batch with the error; the keys before it stay
// interned, ids no caller has been handed.
func (in *Interner) InternBatch(ks []string, ids []int32) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, k := range ks {
		id, slot, ok := in.lookupLocked(k)
		if !ok {
			var err error
			if id, err = in.internLocked(k, slot); err != nil {
				return err
			}
		}
		ids[i] = id
	}
	return nil
}

// SortedView returns the interner's current keys as a sorted Set bound
// back to this interner, plus the id→position map realizing the sort:
// pos[id] is the position of key id in the Set. This is the lazily
// computed sorted-order view — ids stay insertion-ordered; only the
// view is sorted. The returned Set resolves Index through the
// interner's hash table (no second map is ever built).
func (in *Interner) SortedView() (*Set, []int32) {
	in.mu.RLock()
	n := len(in.off) - 1
	ks := make([]string, n)
	for id := 0; id < n; id++ {
		ks[id] = in.keyAt(int32(id))
	}
	in.mu.RUnlock()
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(i)
	}
	// Ids already in key order (sorted input interned in order) need no
	// sort: the view is the identity.
	if !slices.IsSorted(ks) {
		ids := slices.Clone(pos)
		SortKeys(ks, ids)
		for p, id := range ids {
			pos[id] = int32(p)
		}
	}
	set, err := FromSorted(ks)
	if err != nil {
		panic("keys: interner holds duplicate keys: " + err.Error())
	}
	set.Bind(&InternIndex{In: in, Pos: pos})
	return set, pos
}

// InternIndex is an interner-backed reverse index for a Set: position
// lookups resolve through the interner's hash table plus a fixed
// id→position map in O(1), where an unbound Set binary-searches its keys,
// and no per-Set copy of the keys' hash structure exists.
//
// Pos[id] is the position in the Set of the key with that id; ids ≥
// len(Pos) (interned after this Set was formed) and ids mapped to a
// negative position are not in the Set. An InternIndex is immutable
// after binding: universe growth builds a NEW map and binds it to the
// NEW Set (copy-on-write), so Sets already handed out keep resolving
// against the universe they describe.
type InternIndex struct {
	In  *Interner
	Pos []int32
}

// Index resolves k to its Set position.
func (ix *InternIndex) Index(k string) (int, bool) {
	id, ok := ix.In.Lookup(k)
	if !ok || int(id) >= len(ix.Pos) {
		return 0, false
	}
	p := ix.Pos[id]
	if p < 0 {
		return 0, false
	}
	return int(p), true
}
