package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	"adjarray/internal/iofault"
)

// testTag is the tag of the one section writeCheckpoint emits.
const testTag = 7

// writeCheckpoint writes payload as a one-section checkpoint — the
// []byte form of WriteCheckpointFS, for tests.
func writeCheckpoint(fsys iofault.FS, dir string, seq uint64, payload []byte) (string, error) {
	path, _, err := WriteCheckpointFS(fsys, dir, seq, func(w *CheckpointWriter) error {
		if err := w.Section(testTag); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
	return path, err
}

// loadCheckpoint loads the newest valid checkpoint and returns its
// payload: the one section of a writeCheckpoint file, or a format-1
// file's payload.
func loadCheckpoint(dir string) (payload []byte, seq uint64, skipped []error, err error) {
	ck, skipped, err := LoadCheckpointFS(iofault.OS, dir)
	if err != nil || ck == nil {
		return nil, 0, skipped, err
	}
	if ck.Format == 1 {
		return ck.Payload, ck.Seq, skipped, nil
	}
	if len(ck.Sections) != 1 || ck.Sections[0].Tag != testTag {
		return nil, 0, skipped, errors.New("not a writeCheckpoint file")
	}
	return ck.Sections[0].Body, ck.Seq, skipped, nil
}

// formatOneFile is the format-1 file PRs 7–15 wrote around payload.
func formatOneFile(seq uint64, payload []byte) []byte {
	buf := append([]byte(nil), ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC patched below
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[12:], crc32.Checksum(buf[16:], castagnoli))
	return buf
}

// TestFormatOneStillLoads: a format-1 file is read — its payload handed
// back whole — ranks by seq against format-2 files like any other, and
// every damage to it is still caught.
func TestFormatOneStillLoads(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeCheckpoint(iofault.OS, dir, 3, payloadFor(3)); err != nil {
		t.Fatal(err)
	}
	clean := formatOneFile(8, payloadFor(8))
	path := filepath.Join(dir, checkpointName(8))
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, skipped, err := LoadCheckpointFS(iofault.OS, dir)
	if err != nil || len(skipped) != 0 {
		t.Fatalf("load: %v (%d skipped)", err, len(skipped))
	}
	if ck.Format != 1 || ck.Seq != 8 || !bytes.Equal(ck.Payload, payloadFor(8)) || ck.Sections != nil {
		t.Fatalf("loaded format %d seq %d with %d sections, want the format-1 payload of seq 8", ck.Format, ck.Seq, len(ck.Sections))
	}
	for i := range clean {
		damaged := bytes.Clone(clean)
		damaged[i] ^= 0x20
		if _, err := ParseCheckpoint(path, damaged); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("format 1 with byte %d flipped: err = %v, want ErrCorrupt", i, err)
		}
		if _, err := ParseCheckpoint(path, clean[:i]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("format 1 cut to %d bytes: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// sectionedFile writes a checkpoint whose section bodies have every
// length from 0 to 17 bytes — each padding amount, and the empty body.
func sectionedFile(t *testing.T, dir string) (path string, bodies [][]byte) {
	t.Helper()
	for n := 0; n <= 17; n++ {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(n*31 + i + 1)
		}
		bodies = append(bodies, body)
	}
	path, size, err := WriteCheckpointFS(iofault.OS, dir, 11, func(w *CheckpointWriter) error {
		for i, body := range bodies {
			if err := w.Section(uint32(100 + i)); err != nil {
				return err
			}
			// Two writes per body: a section is what was written between
			// its Section call and the next, however it was chunked.
			if _, err := w.Write(body[:len(body)/2]); err != nil {
				return err
			}
			if _, err := w.Write(body[len(body)/2:]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != size {
		t.Fatalf("WriteCheckpointFS reported %d bytes, the file holds %v (%v)", size, fi.Size(), err)
	}
	return path, bodies
}

func TestSectionsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, bodies := sectionedFile(t, dir)
	ck, _, err := LoadCheckpointFS(iofault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Format != 2 || ck.Seq != 11 || len(ck.Sections) != len(bodies) {
		t.Fatalf("loaded format %d seq %d with %d sections, want 2, 11, %d", ck.Format, ck.Seq, len(ck.Sections), len(bodies))
	}
	for i, s := range ck.Sections {
		if s.Tag != uint32(100+i) || !bytes.Equal(s.Body, bodies[i]) {
			t.Errorf("section %d: tag %d body %x, want tag %d body %x", i, s.Tag, s.Body, 100+i, bodies[i])
		}
	}
	// No sections at all is a file too.
	empty := t.TempDir()
	if _, _, err := WriteCheckpointFS(iofault.OS, empty, 1, func(*CheckpointWriter) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if ck, _, err := LoadCheckpointFS(iofault.OS, empty); err != nil || ck.Seq != 1 || len(ck.Sections) != 0 {
		t.Fatalf("sectionless checkpoint: %+v, %v", ck, err)
	}
}

// TestEveryByteIsCovered: one flipped bit anywhere in a format-2 file —
// header, bodies, padding, trailers, footer — and a cut at any length are
// both *CorruptError. Nothing in the file is unchecked.
func TestEveryByteIsCovered(t *testing.T) {
	path, _ := sectionedFile(t, t.TempDir())
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCheckpoint(path, clean); err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		for _, bit := range []byte{0x01, 0x80} {
			damaged := bytes.Clone(clean)
			damaged[i] ^= bit
			var ce *CorruptError
			if _, err := ParseCheckpoint(path, damaged); !errors.As(err, &ce) {
				t.Fatalf("byte %d of %d flipped by %#x: err = %v, want *CorruptError", i, len(clean), bit, err)
			}
		}
		if _, err := ParseCheckpoint(path, clean[:i]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut to %d of %d bytes: err = %v, want ErrCorrupt", i, len(clean), err)
		}
	}
	// Bytes after the footer are damage as well.
	if _, err := ParseCheckpoint(path, append(bytes.Clone(clean), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a trailing byte: err = %v, want ErrCorrupt", err)
	}
}

// TestSectionCountIsBoundedByTheFile: a footer claiming more sections
// than the file has room for is refused before a slice is made for them.
func TestSectionCountIsBoundedByTheFile(t *testing.T) {
	dir := t.TempDir()
	path, err := writeCheckpoint(iofault.OS, dir, 2, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foot := buf[len(buf)-ckptFooterSize:]
	binary.LittleEndian.PutUint32(foot, 1<<31)
	binary.LittleEndian.PutUint32(foot[4:], footerCRC(foot))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ParseCheckpoint(path, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("refusing 2^31 sections allocated %d bytes", got)
	}
}

// TestWriteFaultAtEveryCall fails, in turn, every filesystem call a
// checkpoint write makes after creating its temp file — each Write (the
// file is several buffers long), the Sync, the Rename, the directory
// Sync. The error must surface, no temp file may stay behind, and the
// previous checkpoint must remain what loads (or, once the rename went
// through, the new one: complete).
func TestWriteFaultAtEveryCall(t *testing.T) {
	write := func(ffs iofault.FS, dir string) error {
		_, _, err := WriteCheckpointFS(ffs, dir, 9, func(w *CheckpointWriter) error {
			for s := uint32(1); s <= 3; s++ {
				if err := w.Section(s); err != nil {
					return err
				}
				// In small pieces, so that the writes are the buffer's.
				for i := 0; i < ckptBufSize/100; i++ {
					if _, err := w.Write(bytes.Repeat([]byte{byte(s)}, 111)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		return err
	}
	for _, op := range []iofault.Op{iofault.OpWrite, iofault.OpSync, iofault.OpRename} {
		for after := 0; ; after++ {
			dir := t.TempDir()
			if _, err := writeCheckpoint(iofault.OS, dir, 5, payloadFor(5)); err != nil {
				t.Fatal(err)
			}
			inj := iofault.New()
			inj.Arm(iofault.Rule{Op: op, Kind: iofault.ENOSPC, After: after, Count: 1})
			err := write(iofault.Wrap(iofault.OS, inj), dir)
			if inj.Injected() == 0 {
				if err != nil {
					t.Fatalf("%s: unfaulted write failed: %v", op, err)
				}
				if op == iofault.OpWrite && after != 4 {
					t.Fatalf("a checkpoint of 3.3 buffers made %d Write calls, want 4", after)
				}
				break
			}
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("%s call %d faulted: err = %v, want ENOSPC", op, after, err)
			}
			if n := countTemps(t, dir); n != 0 {
				t.Fatalf("%s call %d faulted: %d temp files left", op, after, n)
			}
			ck, skipped, err := LoadCheckpointFS(iofault.OS, dir)
			if err != nil || len(skipped) != 0 {
				t.Fatalf("%s call %d faulted: load: %v (%d skipped)", op, after, err, len(skipped))
			}
			// Only the directory sync fails with the rename already done.
			if renamed := op == iofault.OpSync && after == 1; renamed != (ck.Seq == 9) || !renamed && ck.Seq != 5 {
				t.Fatalf("%s call %d faulted: loaded seq %d", op, after, ck.Seq)
			}
		}
	}
}
