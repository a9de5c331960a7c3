package stream

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"adjarray/internal/semiring"
	"adjarray/internal/wal"
)

// How the checkpoint fuzz target reads its bytes.
const (
	fuzzFile     = 0 // a checkpoint file, checksums and all
	fuzzSections = 1 // its sections, as if their checksums had held
	fuzzModes    = 2
)

// frameSections is the fuzz target's own framing of a file's sections —
// tag, length, body — so that mutations reach decodeSections instead of
// dying at a CRC.
func frameSections(secs []memSection) []byte {
	var b []byte
	for _, s := range secs {
		b = binary.LittleEndian.AppendUint32(b, s.Tag)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Body)))
		b = append(b, s.Body...)
	}
	return b
}

func unframeSections(b []byte) []memSection {
	var secs []memSection
	for len(b) >= 8 && len(secs) < 2*numSections {
		n := int(binary.LittleEndian.Uint32(b[4:]))
		if n > len(b)-8 {
			break
		}
		secs = append(secs, memSection{Tag: binary.LittleEndian.Uint32(b), Body: b[8 : 8+n]})
		b = b[8+n:]
	}
	return secs
}

// fixtureCheckpoints returns the format-1 checkpoint files under
// testdata — what PR 15 wrote.
func fixtureCheckpoints(t testing.TB) [][]byte {
	t.Helper()
	var files [][]byte
	for _, pattern := range []string{"testdata/pr15/shards1/*.ckpt", "testdata/pr15/shards2/*/*.ckpt"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			buf, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, buf)
		}
	}
	if len(files) != 3 {
		t.Fatalf("found %d fixture checkpoints, want 3", len(files))
	}
	return files
}

// orphanedView is a view two of whose batches died after their endpoints
// were interned: the first leaves -1 inside the position maps once later
// vertices take positions, the second — the last thing the view saw —
// leaves the interners' newest ids without one.
func orphanedView(t testing.TB, ops semiring.Ops[float64]) *View[float64] {
	t.Helper()
	v := NewView(ops)
	boom := errors.New("rolled back")
	doom := func(tag string) {
		v.failpoint = func(site string) error {
			if site == "append:interned" {
				return boom
			}
			return nil
		}
		if err := v.Append([]Edge[float64]{{Src: "orphan-" + tag + "-a", Dst: "orphan-" + tag + "-b"}}); !errors.Is(err, boom) {
			t.Fatalf("doomed batch: %v", err)
		}
		v.failpoint = nil
	}
	for i, b := range pr20Batches(false) {
		if i == 1 {
			doom("mid")
		}
		if err := v.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	doom("tail")
	return v
}

// FuzzDecodeView: whatever the bytes, opening a checkpoint yields a typed
// error or a view that passes validateView, survives being checkpointed
// again unchanged, and still takes an append — never a panic, and never
// more memory than a small multiple of the input.
func FuzzDecodeView(f *testing.F) {
	ops := semiring.PlusTimes()
	// Format 1 comes back as the typed refusal, whatever is done to it.
	for _, file := range fixtureCheckpoints(f) {
		var ce *wal.CorruptError
		if ck, err := parseImage("", file); ck != nil || !errors.As(err, &ce) || ce.Offset != 8 {
			f.Fatalf("format-1 fixture: checkpoint %v, err %v; want the refusal at the version word", ck, err)
		}
		f.Add(uint8(fuzzFile), file)
	}
	// A main regrouped under exact 0 (testdata/pr30) too.
	regrouped, err := os.ReadFile("testdata/pr30/regrouped/ckpt-0000000000000002.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	if ck, err := parseImage("", regrouped); err != nil {
		f.Fatal(err)
	} else if v, err := decodeCheckpoint(ck, ops); v != nil || !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), "exact is 0") {
		f.Fatalf("regrouped fixture: view %v, err %v; want the refusal of exact 0", v, err)
	}
	f.Add(uint8(fuzzFile), regrouped)
	// What PR 20 wrote: format 2 with every key and value spelled out.
	spelled, err := filepath.Glob("testdata/pr20/*1/*.ckpt")
	if err != nil || len(spelled) != 2 {
		f.Fatalf("found %d PR 20 checkpoints (%v), want 2", len(spelled), err)
	}
	for _, p := range spelled {
		buf, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(fuzzFile), buf)
	}
	// Freshly written images: an auto-keyed weighted, an explicit-keyed, an
	// empty and an auto-keyed unit stream (whose key and value sections are
	// empty), and one with ids no edge references — whole, with one byte
	// flipped in each section, and with each of the key and value sections
	// emptied, which leaves among others key offsets beside no slab and a
	// slab beside no offsets.
	for _, v := range []*View[float64]{
		controlViewOf(f, pr14Batches(), ops), controlViewOf(f, durableBatches(47, 4, 9), ops),
		NewView(ops), controlViewOf(f, pr20Batches(false), ops), orphanedView(f, ops),
	} {
		file := writeImage(f, v)
		f.Add(uint8(fuzzFile), file)
		_, sections := imageSections(f, file)
		f.Add(uint8(fuzzSections), frameSections(sections))
		for _, tag := range []uint32{secKeyOff, secKeySlab, secOut, secIn} {
			secs := slices.Clone(sections)
			secs[tag-1].Body = nil
			f.Add(uint8(fuzzSections), frameSections(secs))
		}
		// The word 2³¹, which is no index, as the adjacency's first column
		// and as its second row pointer.
		for tag, at := range map[uint32]int{secColIdx: 0, secRowPtr: 8} {
			if body := sections[tag-1].Body; len(body) >= at+4 {
				secs := slices.Clone(sections)
				secs[tag-1].Body = slices.Clone(body)
				binary.LittleEndian.PutUint32(secs[tag-1].Body[at:], 0x80000000)
				f.Add(uint8(fuzzSections), frameSections(secs))
			}
		}
		for i, off := range sectionOffsets(f, file)[:numSections] {
			flipped := slices.Clone(file)
			flipped[off] ^= 0x04
			f.Add(uint8(fuzzFile), flipped)
			secs := slices.Clone(sections)
			if len(secs[i].Body) > 0 {
				secs[i].Body = slices.Clone(secs[i].Body)
				secs[i].Body[len(secs[i].Body)/2] ^= 0x04
			}
			f.Add(uint8(fuzzSections), frameSections(secs))
		}
	}

	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var ck *wal.Checkpoint
		switch mode % fuzzModes {
		case fuzzFile:
			var err error
			if ck, err = parseImage("fuzz", data); err != nil {
				return
			}
		case fuzzSections:
			ck = reframe(t, "fuzz", 0, unframeSections(data))
		}
		v, err := decodeCheckpoint(ck, ops)
		runtime.ReadMemStats(&after)
		// The largest legitimate ratio is a 16-byte string header per
		// 4-byte entry of a position map or a key-offset column; the fuzz
		// engine's own allocations ride along.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if err := validateView(v); err != nil {
			t.Fatalf("decoded view is invalid: %v", err)
		}
		again, err := readImage(writeImage(t, v), ops)
		if err != nil {
			t.Fatalf("the decoded view does not re-encode: %v", err)
		}
		if err := sameView(again, v); err != nil {
			t.Fatalf("re-encoded view: %v", err)
		}
		if err := v.Append([]Edge[float64]{{Src: "fuzz-src", Dst: "fuzz-dst"}}); err != nil {
			t.Fatalf("decoded view refuses a keyless append: %v", err)
		}
		if _, err := v.Snapshot(); err != nil {
			t.Fatalf("decoded view does not fold: %v", err)
		}
	})
}

// FuzzDecodeBatch: a WAL record payload decodes to a typed error or to a
// batch that encodes back to bytes decoding to the same batch — never a
// panic, never more memory than the record's length accounts for.
func FuzzDecodeBatch(f *testing.F) {
	for _, batch := range append(pr14Batches(), durableBatches(48, 2, 5)...) {
		f.Add(appendBatch(nil, batch))
	}
	f.Add([]byte{})
	f.Add([]byte{0xa0, 0x1f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		edges, err := decodeBatch(data, nil)
		runtime.ReadMemStats(&after)
		// An edge is four bytes at least and 72 in memory, plus its strings.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+1<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		// Into a slice that held another batch, as a replay decodes: nothing
		// of that batch may show through.
		stale := slices.Repeat([]Edge[float64]{Weighted("stale", "stale", "stale", 9.0, 9)}, len(edges)+1)
		again, err := decodeBatch(appendBatch(nil, edges), stale)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		same := func(a, b Edge[float64]) bool { // a NaN weight is itself again
			return a.Key == b.Key && a.Src == b.Src && a.Dst == b.Dst && a.HasOut == b.HasOut && a.HasIn == b.HasIn &&
				(a.Out == b.Out || a.Out != a.Out) && (a.In == b.In || a.In != a.In)
		}
		if !slices.EqualFunc(again, edges, same) {
			t.Fatalf("batch changed across a re-encode")
		}
	})
}
