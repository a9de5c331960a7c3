package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// payload: the one section of a writeCheckpoint file.
func loadCheckpoint(dir string) (payload []byte, seq uint64, skipped []error, err error) {
	ck, skipped, err := LoadCheckpointFS(iofault.OS, dir)
	if err != nil || ck == nil {
		return nil, 0, skipped, err
	}
	if len(ck.Sections) != 1 || ck.Sections[0].Tag != testTag {
		return nil, 0, skipped, errors.New("not a writeCheckpoint file")
	}
	return ck.Sections[0].Body, ck.Seq, skipped, nil
}

// TestFormatOneIsRefused: a format-1 file — one PR 15 really wrote — is a
// *CorruptError at the version word that names the format and the
// remedy; a directory holding nothing newer fails to load rather than
// load as empty; and below a format-2 file of higher seq it is never
// read at all.
func TestFormatOneIsRefused(t *testing.T) {
	const name = "ckpt-0000000000000003.ckpt"
	old, err := os.ReadFile(filepath.Join("..", "stream", "testdata", "pr15", "shards1", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	refused := func(err error) {
		t.Helper()
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Path != path || ce.Offset != 8 ||
			!strings.Contains(ce.Reason, "format 1") || !strings.Contains(ce.Reason, "b3cab25") {
			t.Fatalf("err = %v, want a *CorruptError at offset 8 of %s naming format 1 and the last build that reads it", err, path)
		}
	}
	ck, err := ParseCheckpoint(path, old)
	if refused(err); ck != nil {
		t.Fatalf("ParseCheckpoint handed back a checkpoint beside the refusal: %+v", ck)
	}
	ck, skipped, err := LoadCheckpointFS(iofault.OS, dir)
	if refused(err); ck != nil || len(skipped) != 1 {
		t.Fatalf("load of a format-1 directory: checkpoint %v, %d skipped; want nil and the one refusal", ck, len(skipped))
	}
	if _, err := writeCheckpoint(iofault.OS, dir, 8, payloadFor(8)); err != nil {
		t.Fatal(err)
	}
	payload, seq, skipped, err := loadCheckpoint(dir)
	if err != nil || seq != 8 || len(skipped) != 0 || !bytes.Equal(payload, payloadFor(8)) {
		t.Fatalf("format 2 at seq 8 above format 1 at seq 3: seq %d, %d skipped, err %v", seq, len(skipped), err)
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
	if ck.Seq != 11 || len(ck.Sections) != len(bodies) {
		t.Fatalf("loaded seq %d with %d sections, want 11, %d", ck.Seq, len(ck.Sections), len(bodies))
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
