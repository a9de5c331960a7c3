package wal

import (
	"adjarray/internal/iofault"

	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// payloadFor generates a deterministic payload for seq, with a length
// that varies so record boundaries land at irregular offsets.
func payloadFor(seq uint64) []byte {
	n := int(seq%97) + 1
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seq*31 + uint64(i)*7)
	}
	return p
}

// writeLog appends records 1..n to a fresh log in dir and returns the
// writer (still open).
func writeLog(t *testing.T, dir string, n int, opt Options) *Writer {
	t.Helper()
	w, err := NewWriter(dir, 1, opt)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 1; i <= n; i++ {
		seq, err := w.Append(payloadFor(uint64(i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Append returned seq %d, want %d", seq, i)
		}
	}
	return w
}

// replayAll collects every record at or above fromSeq.
func replayAll(t *testing.T, dir string, fromSeq uint64) (map[uint64][]byte, RecoverStats, error) {
	t.Helper()
	got := map[uint64][]byte{}
	st, err := ReplayFS(iofault.OS, dir, fromSeq, func(seq uint64, payload []byte) error {
		got[seq] = bytes.Clone(payload)
		return nil
	})
	return got, st, err
}

func TestWriterReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := writeLog(t, dir, 200, Options{Policy: SyncNever, SegmentBytes: 1 << 10})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, st, err := replayAll(t, dir, 0)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.Records != 200 || st.LastSeq != 200 {
		t.Fatalf("stats = %+v, want 200 records ending at 200", st)
	}
	if st.Segments < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", st.Segments)
	}
	if st.TornBytes != 0 {
		t.Fatalf("clean log reported torn bytes: %+v", st)
	}
	for i := uint64(1); i <= 200; i++ {
		if !bytes.Equal(got[i], payloadFor(i)) {
			t.Fatalf("payload mismatch at seq %d", i)
		}
	}
}

func TestReplayFromSeqSkipsCoveredPrefix(t *testing.T) {
	dir := t.TempDir()
	w := writeLog(t, dir, 50, Options{Policy: SyncNever, SegmentBytes: 512})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, st, err := replayAll(t, dir, 30)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.Records != 20 {
		t.Fatalf("got %d records above seq 30, want 20", st.Records)
	}
	for seq := range got {
		if seq <= 30 {
			t.Fatalf("replay delivered covered seq %d", seq)
		}
	}
}

func TestReplayAfterRetireSegments(t *testing.T) {
	dir := t.TempDir()
	w := writeLog(t, dir, 100, Options{Policy: SyncNever, SegmentBytes: 512})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(iofault.OS, dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (err %v)", len(segs), err)
	}
	// Retire under a checkpoint at seq 60; everything above must survive.
	if _, err := RetireSegmentsFS(iofault.OS, dir, 60); err != nil {
		t.Fatalf("RetireSegments: %v", err)
	}
	got, _, err := replayAll(t, dir, 60)
	if err != nil {
		t.Fatalf("Replay after retire: %v", err)
	}
	for i := uint64(61); i <= 100; i++ {
		if !bytes.Equal(got[i], payloadFor(i)) {
			t.Fatalf("post-retire payload mismatch at seq %d", i)
		}
	}
	// A replay floor below what retirement removed must fail loudly,
	// not silently skip history.
	if _, _, err := replayAll(t, dir, 10); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay below retired floor: err = %v, want ErrCorrupt", err)
	}
}

func TestRetireSegmentsNeverRemovesLast(t *testing.T) {
	dir := t.TempDir()
	w := writeLog(t, dir, 10, Options{Policy: SyncNever, SegmentBytes: 1 << 20})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n, err := RetireSegmentsFS(iofault.OS, dir, 10); err != nil || n != 0 {
		t.Fatalf("RetireSegments removed %d (err %v), want 0 — last segment must survive", n, err)
	}
	if _, st, err := replayAll(t, dir, 0); err != nil || st.Records != 10 {
		t.Fatalf("replay after no-op retire: %+v, %v", st, err)
	}
}

func TestNewWriterReusesDeadSegmentFile(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crash that created the next segment file but never wrote
	// a valid record into it: recovery computes nextSeq=1 and must be able
	// to open wal-...0001.seg again.
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte{0xde, 0xad}, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(dir, 1, Options{Policy: SyncNever})
	if err != nil {
		t.Fatalf("NewWriter over dead segment: %v", err)
	}
	if _, err := w.Append(payloadFor(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, st, err := replayAll(t, dir, 0)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.Records != 1 || !bytes.Equal(got[1], payloadFor(1)) {
		t.Fatalf("dead bytes leaked into replay: %+v", st)
	}
}

func TestDurableSeqPerPolicy(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		w, err := NewWriter(t.TempDir(), 1, Options{Policy: SyncEveryAppend})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for i := 1; i <= 3; i++ {
			if _, err := w.Append(payloadFor(uint64(i))); err != nil {
				t.Fatal(err)
			}
			if w.DurableSeq() != uint64(i) {
				t.Fatalf("after append %d: DurableSeq = %d", i, w.DurableSeq())
			}
		}
	})
	t.Run("off", func(t *testing.T) {
		w, err := NewWriter(t.TempDir(), 1, Options{Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for i := 1; i <= 3; i++ {
			if _, err := w.Append(payloadFor(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if w.DurableSeq() != 0 {
			t.Fatalf("SyncNever acknowledged seq %d durable without a sync", w.DurableSeq())
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if w.DurableSeq() != 3 {
			t.Fatalf("after explicit Sync: DurableSeq = %d, want 3", w.DurableSeq())
		}
	})
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"batch", SyncEveryAppend}, {"every", SyncEveryAppend}, {"always", SyncEveryAppend},
		{"interval", SyncInterval}, {"off", SyncNever}, {"never", SyncNever}, {"none", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted junk")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := payloadFor(42)
	if _, err := writeCheckpoint(iofault.OS, dir, 42, want); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	got, seq, skipped, err := loadCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if seq != 42 || !bytes.Equal(got, want) || len(skipped) != 0 {
		t.Fatalf("LoadCheckpoint = seq %d, %d skipped", seq, len(skipped))
	}
}

func TestLoadCheckpointEmptyDir(t *testing.T) {
	got, seq, skipped, err := loadCheckpoint(t.TempDir())
	if err != nil || got != nil || seq != 0 || len(skipped) != 0 {
		t.Fatalf("empty dir: payload=%v seq=%d skipped=%d err=%v", got, seq, len(skipped), err)
	}
}

func TestLoadCheckpointFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	if _, err := writeCheckpoint(iofault.OS, dir, 10, payloadFor(10)); err != nil {
		t.Fatal(err)
	}
	newer, err := writeCheckpoint(iofault.OS, dir, 20, payloadFor(20))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the newer checkpoint.
	buf, err := os.ReadFile(newer)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(newer, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, seq, skipped, err := loadCheckpoint(dir)
	if err != nil {
		t.Fatalf("LoadCheckpoint with damaged newest: %v", err)
	}
	if seq != 10 || !bytes.Equal(got, payloadFor(10)) {
		t.Fatalf("fallback loaded seq %d, want 10", seq)
	}
	if len(skipped) != 1 || !errors.Is(skipped[0], ErrCorrupt) {
		t.Fatalf("skipped = %v, want one ErrCorrupt", skipped)
	}
}

func TestLoadCheckpointAllInvalid(t *testing.T) {
	dir := t.TempDir()
	path, err := writeCheckpoint(iofault.OS, dir, 5, payloadFor(5))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[ckptHeaderSize] ^= 0x01
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("all-invalid LoadCheckpoint err = %v, want ErrCorrupt", err)
	}
}

func TestRetireCheckpoints(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := writeCheckpoint(iofault.OS, dir, seq, payloadFor(seq)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := RetireCheckpointsFS(iofault.OS, dir, 2)
	if err != nil || n != 3 {
		t.Fatalf("RetireCheckpoints removed %d (err %v), want 3", n, err)
	}
	cks, err := listCheckpoints(iofault.OS, dir)
	if err != nil || len(cks) != 2 || cks[0].seq != 5 || cks[1].seq != 4 {
		t.Fatalf("surviving checkpoints = %v (err %v), want seqs 5,4", cks, err)
	}
}

func TestWriterRecoveryCycle(t *testing.T) {
	// Full cycle: write, "crash" (no Close), replay, continue in a new
	// writer, replay again — seq space must stay dense across the cycle.
	dir := t.TempDir()
	w := writeLog(t, dir, 25, Options{Policy: SyncEveryAppend, SegmentBytes: 512})
	_ = w // abandoned without Close: simulated crash

	_, st, err := replayAll(t, dir, 0)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	if st.LastSeq != 25 {
		t.Fatalf("first replay LastSeq = %d", st.LastSeq)
	}
	w2, err := NewWriter(dir, st.LastSeq+1, Options{Policy: SyncEveryAppend, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("NewWriter after recovery: %v", err)
	}
	for i := 26; i <= 40; i++ {
		if _, err := w2.Append(payloadFor(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, st, err := replayAll(t, dir, 0)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if st.LastSeq != 40 || st.Records != 40 {
		t.Fatalf("second replay stats = %+v", st)
	}
	for i := uint64(1); i <= 40; i++ {
		if !bytes.Equal(got[i], payloadFor(i)) {
			t.Fatalf("payload mismatch at seq %d after recovery cycle", i)
		}
	}
}

func TestReplayStaleTailGapUnderCheckpoint(t *testing.T) {
	// SyncNever scenario: records 1..8 hit disk, a checkpoint at 10 was
	// written, the un-synced records 9..10 were lost in a crash, and the
	// reopened writer started a fresh segment at 11. The gap 9..10 sits
	// entirely under the checkpoint: replay from 10 must accept it.
	dir := t.TempDir()
	w := writeLog(t, dir, 8, Options{Policy: SyncNever})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := NewWriter(dir, 11, Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 14; i++ {
		if _, err := w2.Append(payloadFor(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, st, err := replayAll(t, dir, 10)
	if err != nil {
		t.Fatalf("replay over checkpoint-covered gap: %v", err)
	}
	if st.Records != 4 || st.LastSeq != 14 {
		t.Fatalf("stats = %+v, want 4 records ending at 14", st)
	}
	for i := uint64(11); i <= 14; i++ {
		if !bytes.Equal(got[i], payloadFor(i)) {
			t.Fatalf("payload mismatch at seq %d", i)
		}
	}
	// The same log WITHOUT the covering checkpoint is a real gap.
	if _, _, err := replayAll(t, dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("uncovered gap gave err %v, want ErrCorrupt", err)
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	w := writeLog(t, dir, 5, Options{Policy: SyncNever})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	_, err := ReplayFS(iofault.OS, dir, 0, func(seq uint64, _ []byte) error {
		if seq == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Replay err = %v, want the callback's error", err)
	}
}
