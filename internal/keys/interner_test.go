package keys

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// adversarialKeys is the key vocabulary the conformance generators use:
// the interner's byte-oriented hash must treat all of these as opaque,
// distinct byte strings.
var adversarialKeys = []string{
	"", "\x00", "\x00\x00", "\xff", "\xff\xff", "a\x00b", "a\xffb",
	"κ", "κλειδί", "🔑", "k", "ke", "key", "key1", "key10", "key100",
	"prefix", "prefix-a", "prefix-b", "prefix-aa", "prefix-ab",
	"\x00suffix", "�", "mixed\xff\x00κ🔑",
}

func TestInternerBasic(t *testing.T) {
	in := NewInterner()
	for i, k := range adversarialKeys {
		id := in.Intern(k)
		if int(id) != i {
			t.Fatalf("Intern(%q) = %d, want dense id %d", k, id, i)
		}
	}
	if in.Len() != len(adversarialKeys) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(adversarialKeys))
	}
	// Re-interning returns the same stable ids.
	for i, k := range adversarialKeys {
		if id := in.Intern(k); int(id) != i {
			t.Fatalf("re-Intern(%q) = %d, want %d", k, id, i)
		}
		if id, ok := in.Lookup(k); !ok || int(id) != i {
			t.Fatalf("Lookup(%q) = %d,%v, want %d,true", k, id, ok, i)
		}
		if got := in.Key(int32(i)); got != k {
			t.Fatalf("Key(%d) = %q, want %q", i, got, k)
		}
	}
	if _, ok := in.Lookup("absent"); ok {
		t.Fatal("Lookup of absent key succeeded")
	}
}

func TestInternerGrowthRehash(t *testing.T) {
	in := NewInterner()
	const n = 10_000 // forces many table growths past the 64-slot start
	for i := 0; i < n; i++ {
		if id := in.Intern(fmt.Sprintf("key-%06d", i)); int(id) != i {
			t.Fatalf("id %d for key %d", id, i)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", i)
		if id, ok := in.Lookup(k); !ok || int(id) != i {
			t.Fatalf("after growth Lookup(%q) = %d,%v", k, id, ok)
		}
	}
}

func TestInternBatchAndLookupBatch(t *testing.T) {
	in := NewInterner()
	in.Intern("pre")
	batch := []string{"b", "a", "b", "pre", "c"}
	ids := make([]int32, len(batch))
	before := in.InternBatch(batch, ids)
	if before != 1 {
		t.Fatalf("before = %d, want 1", before)
	}
	// "b"=1, "a"=2, "b"=1 again (dedup), "pre"=0, "c"=3.
	want := []int32{1, 2, 1, 0, 3}
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("InternBatch ids = %v, want %v", ids, want)
		}
	}
	got := make([]int32, len(batch))
	if !in.LookupBatch(batch, got) {
		t.Fatal("LookupBatch failed on present keys")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("LookupBatch ids = %v, want %v", got, want)
		}
	}
	if in.LookupBatch([]string{"pre", "missing"}, make([]int32, 2)) {
		t.Fatal("LookupBatch succeeded with an absent key")
	}
}

func TestInternerKeyRoundTrip(t *testing.T) {
	in := NewInterner()
	for _, k := range []string{"x", "y", "z"} {
		in.Intern(k)
	}
	for i, k := range []string{"x", "y", "z"} {
		if got := in.Key(int32(i)); got != k {
			t.Fatalf("Key(%d) = %q, want %q", i, got, k)
		}
	}
	// The bulk read: keys laid out by an id → position map that skips an
	// id, places one out of range and stops short of the interner.
	in.Intern("w")
	dst := []string{"", ""}
	in.KeysByPos([]int32{1, -1, 0}, dst)
	if dst[0] != "z" || dst[1] != "x" {
		t.Fatalf("KeysByPos laid out %q, want [z x]", dst)
	}
	in.KeysByPos([]int32{2, 0}, dst)
	if dst[0] != "y" || dst[1] != "x" {
		t.Fatalf("KeysByPos with an out-of-range position laid out %q, want [y x]", dst)
	}
}

func TestSortedViewAndBinding(t *testing.T) {
	in := NewInterner()
	ids := make([]int32, len(adversarialKeys))
	in.InternBatch(adversarialKeys, ids)
	set, pos := in.SortedView()

	want := append([]string(nil), adversarialKeys...)
	sort.Strings(want)
	if set.Len() != len(want) {
		t.Fatalf("SortedView size %d, want %d", set.Len(), len(want))
	}
	for i, k := range want {
		if set.Key(i) != k {
			t.Fatalf("SortedView[%d] = %q, want %q", i, set.Key(i), k)
		}
	}
	if !set.Interned() {
		t.Fatal("SortedView set is not interner-bound")
	}
	// pos realizes the sort: key id sits at position pos[id].
	for id, k := range adversarialKeys {
		if set.Key(int(pos[id])) != k {
			t.Fatalf("pos[%d]=%d does not map id back to %q", id, pos[id], k)
		}
	}
	// The bound Index agrees with binary search (the map-free oracle) on
	// present keys and misses on absent ones — including keys interned
	// AFTER the view was taken, which must stay invisible to it.
	in.Intern("later-key")
	for i := 0; i < set.Len(); i++ {
		k := set.Key(i)
		if p, ok := set.Index(k); !ok || p != i {
			t.Fatalf("bound Index(%q) = %d,%v, want %d,true", k, p, ok, i)
		}
	}
	for _, k := range []string{"absent", "later-key", "prefix-ac"} {
		if _, ok := set.Index(k); ok {
			t.Fatalf("bound Index(%q) succeeded, want miss", k)
		}
	}
}

// TestSortedViewOfOrderedIds covers the no-sort path: keys interned in
// ascending order give the identity view, and one key out of place puts
// the view back on the sorting path with the same contract.
func TestSortedViewOfOrderedIds(t *testing.T) {
	ordered := append([]string(nil), adversarialKeys...)
	sort.Strings(ordered)
	for _, ks := range [][]string{nil, {"only"}, ordered, append(append([]string(nil), ordered...), "\x00first")} {
		in := NewInterner()
		in.InternBatch(ks, make([]int32, len(ks)))
		set, pos := in.SortedView()
		if want := New(ks...); !set.Equal(want) {
			t.Fatalf("SortedView of %q = %v, want %v", ks, set, want)
		}
		for id, k := range ks {
			if set.Key(int(pos[id])) != k {
				t.Fatalf("pos[%d]=%d does not map id back to %q", id, pos[id], k)
			}
			if p, ok := set.Index(k); !ok || p != int(pos[id]) {
				t.Fatalf("bound Index(%q) = %d,%v, want %d,true", k, p, ok, pos[id])
			}
		}
	}
}

// TestBoundSetMatchesMapIndex differentially checks the interner-backed
// Index against the map-backed Index of an identical unbound Set over a
// randomized key population.
func TestBoundSetMatchesMapIndex(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := NewInterner()
	seen := map[string]bool{}
	var ks []string
	for len(ks) < 500 {
		k := fmt.Sprintf("%x-%d", r.Int63(), r.Intn(10))
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	ids := make([]int32, len(ks))
	in.InternBatch(ks, ids)
	bound, _ := in.SortedView()
	unbound := New(ks...)
	probes := append([]string(nil), ks...)
	for i := 0; i < 200; i++ {
		probes = append(probes, fmt.Sprintf("probe-%d", i))
	}
	for _, k := range probes {
		bi, bok := bound.Index(k)
		ui, uok := unbound.Index(k)
		if bi != ui || bok != uok {
			t.Fatalf("Index(%q): bound %d,%v vs map %d,%v", k, bi, bok, ui, uok)
		}
	}
}

// TestInternerConcurrentReaders exercises the documented concurrency
// contract under -race: one writer interning new keys while readers
// resolve a bound snapshot Set. Keys the snapshot owns must always
// resolve; later keys must never become visible through it.
func TestInternerConcurrentReaders(t *testing.T) {
	in := NewInterner()
	base := make([]string, 512)
	for i := range base {
		base[i] = fmt.Sprintf("base-%04d", i)
	}
	ids := make([]int32, len(base))
	in.InternBatch(base, ids)
	snap, _ := in.SortedView()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: grows slab and rehashes the table concurrently
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			in.Intern(fmt.Sprintf("later-%05d", i))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				k := base[rng.Intn(len(base))]
				if p, ok := snap.Index(k); !ok || snap.Key(p) != k {
					t.Errorf("snapshot lost key %q (pos %d ok=%v)", k, p, ok)
					return
				}
				if _, ok := snap.Index(fmt.Sprintf("later-%05d", rng.Intn(5000))); ok {
					t.Error("later key leaked into snapshot set")
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
}
