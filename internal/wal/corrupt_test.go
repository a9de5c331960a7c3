package wal

import (
	"adjarray/internal/iofault"

	"bytes"
	"errors"
	"os"
	"testing"
)

// recordBoundaries returns the byte offset of every record boundary in
// a segment file, including 0 and the file length.
func recordBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	var s segment
	if err := s.open(iofault.OS, path); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	offs := []int64{0}
	var off int64
	for off < s.size {
		_, _, next, ok, err := s.record(off)
		if err != nil || !ok {
			t.Fatalf("segment %s is not clean at offset %d (ok=%v err=%v)", path, off, ok, err)
		}
		off = next
		offs = append(offs, off)
	}
	return offs
}

// cloneLog copies every file of a log directory into a fresh temp dir
// so each table case mutates its own copy.
func cloneLog(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		buf, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst+"/"+e.Name(), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTornTailAtEveryBoundary truncates the final segment at every
// record boundary and at every boundary+delta (mid-record) and asserts
// replay recovers exactly the surviving whole records, repairing the
// file so a second replay is clean.
func TestTornTailAtEveryBoundary(t *testing.T) {
	master := t.TempDir()
	const n = 40
	w := writeLog(t, master, n, Options{Policy: SyncNever, SegmentBytes: 1 << 20})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(iofault.OS, master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want single segment, got %d (err %v)", len(segs), err)
	}
	bounds := recordBoundaries(t, segs[0].path)
	if len(bounds) != n+1 {
		t.Fatalf("found %d boundaries, want %d", len(bounds), n+1)
	}
	for i, cut := range bounds {
		for _, delta := range []int64{0, 1, recordHeaderSize - 1, recordHeaderSize + 1} {
			at := cut + delta
			if at > bounds[len(bounds)-1] || (delta > 0 && i == len(bounds)-1) {
				continue
			}
			dir := cloneLog(t, master)
			csegs, _ := listSegments(iofault.OS, dir)
			if err := os.Truncate(csegs[0].path, at); err != nil {
				t.Fatal(err)
			}
			got, st, err := replayAll(t, dir, 0)
			if err != nil {
				t.Fatalf("truncate@%d: replay failed: %v", at, err)
			}
			// Whole records before the cut survive; nothing after does.
			want := i
			if delta > 0 {
				want = i // partial record i+1 is discarded
			}
			if len(got) != want {
				t.Fatalf("truncate@%d: recovered %d records, want %d", at, len(got), want)
			}
			for s := uint64(1); s <= uint64(want); s++ {
				if !bytes.Equal(got[s], payloadFor(s)) {
					t.Fatalf("truncate@%d: payload mismatch at seq %d", at, s)
				}
			}
			if delta > 0 && st.TornBytes == 0 {
				t.Fatalf("truncate@%d: mid-record cut not reported as torn", at)
			}
			// Repair must be idempotent: replay again, clean.
			got2, st2, err := replayAll(t, dir, 0)
			if err != nil || len(got2) != want || st2.TornBytes != 0 {
				t.Fatalf("truncate@%d: second replay not clean: %d records, %+v, %v", at, len(got2), st2, err)
			}
		}
	}
}

// TestBitFlipAtEveryRecord flips a byte inside each record in turn and
// asserts: damage to the FINAL record recovers by truncation; damage to
// any earlier record is a typed error. Never a silently wrong replay.
func TestBitFlipAtEveryRecord(t *testing.T) {
	master := t.TempDir()
	const n = 30
	w := writeLog(t, master, n, Options{Policy: SyncNever, SegmentBytes: 1 << 20})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	msegs, _ := listSegments(iofault.OS, master)
	bounds := recordBoundaries(t, msegs[0].path)

	for rec := 0; rec < n; rec++ {
		// Flip a payload byte and separately a header byte of record rec.
		for _, at := range []int64{bounds[rec] + recordHeaderSize, bounds[rec] + 9} {
			dir := cloneLog(t, master)
			csegs, _ := listSegments(iofault.OS, dir)
			buf, err := os.ReadFile(csegs[0].path)
			if err != nil {
				t.Fatal(err)
			}
			buf[at] ^= 0x40
			if err := os.WriteFile(csegs[0].path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			got, st, err := replayAll(t, dir, 0)
			if rec == n-1 {
				// Final record: indistinguishable from a torn last write.
				if err != nil {
					t.Fatalf("flip rec %d @%d: final-record damage should truncate, got %v", rec, at, err)
				}
				if len(got) != n-1 || st.TornBytes == 0 {
					t.Fatalf("flip rec %d @%d: recovered %d records, torn=%d", rec, at, len(got), st.TornBytes)
				}
			} else {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip rec %d @%d: mid-log damage gave err %v, want ErrCorrupt", rec, at, err)
				}
			}
			// In neither case may a record after the damage have been
			// delivered with wrong bytes.
			for s, p := range got {
				if !bytes.Equal(p, payloadFor(s)) {
					t.Fatalf("flip rec %d @%d: delivered corrupted payload for seq %d", rec, at, s)
				}
			}
		}
	}
}

// TestBitFlipLengthField corrupts a record's length field into an
// absurd value mid-file and asserts the typed error (framing is lost;
// no resynchronization is attempted).
func TestBitFlipLengthField(t *testing.T) {
	dir := t.TempDir()
	w := writeLog(t, dir, 10, Options{Policy: SyncNever})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(iofault.OS, dir)
	bounds := recordBoundaries(t, segs[0].path)
	buf, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	buf[bounds[4]+3] = 0xff // record 5's length becomes > maxRecordPayload
	if err := os.WriteFile(segs[0].path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayAll(t, dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd mid-file length gave err %v, want ErrCorrupt", err)
	}
}

// TestTornMiddleSegment truncates a NON-final segment and asserts the
// typed error — a torn middle means lost history, not a repairable tail.
func TestTornMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	w := writeLog(t, dir, 120, Options{Policy: SyncNever, SegmentBytes: 512})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(iofault.OS, dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	mid := segs[len(segs)/2]
	fi, err := os.Stat(mid.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(mid.path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayAll(t, dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn middle segment gave err %v, want ErrCorrupt", err)
	}
}

// TestMissingMiddleSegment deletes a whole middle segment: the seq gap
// must be detected.
func TestMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	w := writeLog(t, dir, 120, Options{Policy: SyncNever, SegmentBytes: 512})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(iofault.OS, dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayAll(t, dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing middle segment gave err %v, want ErrCorrupt", err)
	}
}

// TestCheckpointCorruptionAtEveryBoundary damages a checkpoint file at
// each interesting offset (magic, version, CRC, seq, section length,
// payload, truncation) and asserts loading either falls back to an
// older valid checkpoint or fails typed — never returns damaged bytes.
// (TestEveryByteIsCovered flips every byte; this one is about the
// fallback.)
func TestCheckpointCorruptionAtEveryBoundary(t *testing.T) {
	master := t.TempDir()
	if _, err := writeCheckpoint(iofault.OS, master, 7, payloadFor(7)); err != nil {
		t.Fatal(err)
	}
	newerPayload := payloadFor(9)
	newer, err := writeCheckpoint(iofault.OS, master, 9, newerPayload)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(newer)
	if err != nil {
		t.Fatal(err)
	}

	mutations := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"magic", func(b []byte) []byte { b[0] ^= 0x01; return b }},
		{"version", func(b []byte) []byte { b[8] = 99; return b }},
		{"crc", func(b []byte) []byte { b[12] ^= 0x80; return b }},
		{"seq", func(b []byte) []byte { b[16] ^= 0x01; return b }},
		{"length", func(b []byte) []byte { b[len(b)-ckptFooterSize-8] ^= 0x01; return b }},
		{"payload-first", func(b []byte) []byte { b[ckptHeaderSize] ^= 0x01; return b }},
		{"payload-last", func(b []byte) []byte { b[ckptHeaderSize+len(newerPayload)-1] ^= 0x01; return b }},
		{"truncate-header", func(b []byte) []byte { return b[:ckptHeaderSize-1] }},
		{"truncate-payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"empty", func(b []byte) []byte { return b[:0] }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			dir := cloneLog(t, master)
			path := dir + "/" + checkpointName(9)
			if err := os.WriteFile(path, m.mut(bytes.Clone(clean)), 0o644); err != nil {
				t.Fatal(err)
			}
			got, seq, skipped, err := loadCheckpoint(dir)
			if err != nil {
				t.Fatalf("%s: no fallback despite older valid checkpoint: %v", m.name, err)
			}
			if seq != 7 || !bytes.Equal(got, payloadFor(7)) {
				t.Fatalf("%s: loaded seq %d — damaged checkpoint was served", m.name, seq)
			}
			if len(skipped) != 1 || !errors.Is(skipped[0], ErrCorrupt) {
				t.Fatalf("%s: skipped = %v, want one ErrCorrupt", m.name, skipped)
			}

			// With the older checkpoint also gone, the same damage must be
			// a typed error, not an empty-state restart.
			if err := os.Remove(dir + "/" + checkpointName(7)); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := loadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: sole damaged checkpoint gave err %v, want ErrCorrupt", m.name, err)
			}
		})
	}
}
