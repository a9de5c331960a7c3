package wal

import (
	"errors"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"adjarray/internal/iofault"
)

// TestWriterWedgesOnSyncFailure is the fsyncgate regression: one failed
// fsync must freeze DurableSeq at the last successful fsync forever and
// make every subsequent Append/Sync return the sticky typed error — a
// later fsync "succeeding" would not make the dropped pages durable.
func TestWriterWedgesOnSyncFailure(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.New()
	w, err := NewWriter(dir, 1, Options{Policy: SyncEveryAppend, FS: iofault.Wrap(iofault.OS, inj)})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := w.Append(payloadFor(1)); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if got := w.DurableSeq(); got != 1 {
		t.Fatalf("DurableSeq = %d, want 1", got)
	}

	inj.Arm(iofault.Rule{Op: iofault.OpSync, Path: "wal-", Kind: iofault.EIO, Count: 1})
	_, err = w.Append(payloadFor(2))
	if err == nil {
		t.Fatal("append over a failed fsync must error")
	}
	if !errors.Is(err, ErrWedged) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("want wedged EIO, got %v", err)
	}
	if got := w.DurableSeq(); got != 1 {
		t.Fatalf("failed fsync advanced DurableSeq to %d; must stay 1", got)
	}

	// The fault budget is spent — the disk is "healthy" again — but the
	// writer must stay wedged anyway.
	if _, err := w.Append(payloadFor(3)); !errors.Is(err, ErrWedged) {
		t.Fatalf("append after wedge: want ErrWedged, got %v", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrWedged) {
		t.Fatalf("sync after wedge: want ErrWedged, got %v", err)
	}
	if got := w.DurableSeq(); got != 1 {
		t.Fatalf("DurableSeq moved to %d after wedge", got)
	}
	if _, err := w.Append(payloadFor(4)); !errors.Is(err, ErrWedged) {
		t.Fatalf("append after the refused sync: want ErrWedged, got %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrWedged) {
		t.Fatalf("close after wedge: want ErrWedged, got %v", err)
	}

	// No acked-durable record may be lost across reopen: seq 1 was
	// acknowledged before the fault and must replay. Seq 2's bytes hit
	// the file before its failed fsync, so replay may legitimately
	// deliver it too — recovering MORE than was acked is allowed,
	// losing acked data is not.
	seen := map[uint64]bool{}
	st, err := ReplayFS(iofault.OS, dir, 0, func(seq uint64, payload []byte) error {
		seen[seq] = true
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !seen[1] {
		t.Fatalf("acked seq 1 lost across reopen (stats %+v)", st)
	}
	if seen[3] {
		t.Fatal("seq 3 was refused by the wedge; it must not exist on disk")
	}
}

// TestWriterWedgesOnWriteFailure: a failed or short Write leaves torn
// bytes mid-segment; appending valid records after them would turn a
// repairable torn tail into unrecoverable mid-log corruption, so the
// writer must wedge on write failure exactly as on sync failure.
func TestWriterWedgesOnWriteFailure(t *testing.T) {
	for _, kind := range []iofault.Kind{iofault.EIO, iofault.ENOSPC, iofault.ShortWrite, iofault.TornWrite} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			inj := iofault.New()
			w, err := NewWriter(dir, 1, Options{Policy: SyncEveryAppend, FS: iofault.Wrap(iofault.OS, inj)})
			if err != nil {
				t.Fatalf("NewWriter: %v", err)
			}
			if _, err := w.Append(payloadFor(1)); err != nil {
				t.Fatalf("append 1: %v", err)
			}
			inj.Arm(iofault.Rule{Op: iofault.OpWrite, Path: "wal-", Kind: kind, Count: 1})
			if _, err := w.Append(payloadFor(2)); !errors.Is(err, ErrWedged) {
				t.Fatalf("append through %s: want ErrWedged, got %v", kind, err)
			}
			if _, err := w.Append(payloadFor(3)); !errors.Is(err, ErrWedged) {
				t.Fatalf("append after wedge: want ErrWedged, got %v", err)
			}
			w.Close() //adjlint:ignore syncerr wedged close; the sticky error is asserted above

			// The torn bytes sit at the log tail, so recovery repairs
			// them and the acked record survives.
			var last uint64
			st, err := ReplayFS(iofault.OS, dir, 0, func(seq uint64, payload []byte) error {
				last = seq
				return nil
			})
			if err != nil {
				t.Fatalf("replay after %s: %v", kind, err)
			}
			if last != 1 {
				t.Fatalf("replay recovered through seq %d, want exactly the acked seq 1 (stats %+v)", last, st)
			}
		})
	}
}

// TestCheckpointTempReap fills the fault budget so both the checkpoint
// rename and its cleanup Remove fail, counts the orphaned temp file,
// and checks ReapTempCheckpoints clears it (satellite: temp files must
// be reaped on open and on failed writes).
func TestCheckpointTempReap(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.New()
	ffs := iofault.Wrap(iofault.OS, inj)
	if _, err := writeCheckpoint(ffs, dir, 5, []byte("payload-5")); err != nil {
		t.Fatalf("healthy checkpoint: %v", err)
	}

	inj.Arm(iofault.Rule{Op: iofault.OpRename, Kind: iofault.ENOSPC, Count: 1})
	inj.Arm(iofault.Rule{Op: iofault.OpRemove, Path: ".tmp", Kind: iofault.EIO, Count: 1})
	if _, err := writeCheckpoint(ffs, dir, 9, []byte("payload-9")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC from rename, got %v", err)
	}
	if n := countTemps(t, dir); n != 1 {
		t.Fatalf("rename+remove faults left %d temp files, want 1", n)
	}

	removed, err := ReapTempCheckpoints(iofault.OS, dir)
	if err != nil {
		t.Fatalf("reap: %v", err)
	}
	if removed != 1 || countTemps(t, dir) != 0 {
		t.Fatalf("reap removed %d, %d temps left; want 1 removed, 0 left", removed, countTemps(t, dir))
	}

	// The published checkpoint is untouched and still loads.
	payload, seq, _, err := loadCheckpoint(dir)
	if err != nil || seq != 5 || string(payload) != "payload-5" {
		t.Fatalf("LoadCheckpoint after reap: payload=%q seq=%d err=%v", payload, seq, err)
	}
}

// TestWriteCheckpointCleansTempOnWriteFault: when the temp-file write
// itself faults, WriteCheckpointFS's own cleanup reaps the temp
// (TestWriteFaultAtEveryCall does the same at every call).
func TestWriteCheckpointCleansTempOnWriteFault(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.New()
	ffs := iofault.Wrap(iofault.OS, inj)
	inj.Arm(iofault.Rule{Op: iofault.OpWrite, Path: ".tmp", Kind: iofault.ShortWrite, Count: 1})
	if _, err := writeCheckpoint(ffs, dir, 3, []byte("p")); err == nil {
		t.Fatal("faulted checkpoint write must error")
	}
	if n := countTemps(t, dir); n != 0 {
		t.Fatalf("cleanup left %d temp files", n)
	}
}

func countTemps(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.tmp"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	n := 0
	for _, m := range matches {
		if strings.HasSuffix(m, ".tmp") {
			n++
		}
	}
	return n
}
