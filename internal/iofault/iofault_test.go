package iofault

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// Events returns a copy of the injected-fault log in injection order.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// TestScriptedRuleMatching exercises After/Count/Path/Op selection.
func TestScriptedRuleMatching(t *testing.T) {
	inj := New()
	inj.Arm(Rule{Op: OpSync, Path: "wal-", Kind: EIO, After: 1, Count: 1})
	ffs := Wrap(OS, inj)

	dir := t.TempDir()
	path := filepath.Join(dir, "wal-0001.seg")
	f, err := ffs.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync should pass (After=1): %v", err)
	}
	err = f.Sync()
	if err == nil {
		t.Fatal("second sync should fail")
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("want injected EIO, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("third sync should pass (Count=1): %v", err)
	}
	// A non-matching path never faults.
	other, err := ffs.OpenFile(filepath.Join(dir, "ckpt-x.ckpt"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("open other: %v", err)
	}
	defer other.Close()
	if err := other.Sync(); err != nil {
		t.Fatalf("other path must not match the wal- rule: %v", err)
	}
	if got := inj.Injected(); got != 1 {
		t.Fatalf("Injected() = %d, want 1", got)
	}
}

// TestShortAndTornWrites checks the on-disk state the write kinds
// leave behind: a short write lands a strict prefix, a torn write
// lands at most the buffer length and never grows the file past it.
func TestShortAndTornWrites(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("0123456789abcdef0123456789abcdef")

	inj := New()
	inj.Arm(Rule{Op: OpWrite, Kind: ShortWrite, Count: 1})
	ffs := Wrap(OS, inj)
	short := filepath.Join(dir, "short.bin")
	f, err := ffs.OpenFile(short, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	n, err := f.Write(payload)
	f.Close()
	if err == nil || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("want short-write error, got n=%d err=%v", n, err)
	}
	if n != len(payload)/2 {
		t.Fatalf("short write landed %d bytes, want %d", n, len(payload)/2)
	}
	got, err := os.ReadFile(short)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(got) != string(payload[:len(payload)/2]) {
		t.Fatalf("short write landed %q, want the prefix %q", got, payload[:len(payload)/2])
	}

	inj2 := New()
	inj2.Arm(Rule{Op: OpWrite, Kind: TornWrite, Count: 1})
	ffs2 := Wrap(OS, inj2)
	torn := filepath.Join(dir, "torn.bin")
	f2, err := ffs2.OpenFile(torn, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	n2, err := f2.Write(payload)
	f2.Close()
	if err == nil || !errors.Is(err, syscall.EIO) {
		t.Fatalf("want torn-write EIO, got n=%d err=%v", n2, err)
	}
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if fi.Size() > int64(len(payload)) || fi.Size() != int64(n2) {
		t.Fatalf("torn write landed %d bytes (reported %d), want <= %d and equal", fi.Size(), n2, len(payload))
	}
}

// TestRandomScheduleDeterminism runs the same operation sequence under
// the same seed twice and expects identical fault events, and a
// different event stream under another seed (over enough operations).
func TestRandomScheduleDeterminism(t *testing.T) {
	run := func(seed int64) []Event {
		inj := New()
		inj.ArmRandom(seed, 0.3, -1)
		ffs := Wrap(OS, inj)
		dir := t.TempDir()
		for i := 0; i < 40; i++ {
			f, err := ffs.OpenFile(filepath.Join(dir, "f.bin"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
			if err != nil {
				continue
			}
			f.Write([]byte("x")) //adjlint:ignore syncerr fault probe; errors are the expected outcome
			f.Sync()             //adjlint:ignore syncerr fault probe; errors are the expected outcome
			f.Close()
		}
		return inj.Events()
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("expected some injected faults at rate 0.3 over 120 ops")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Kind != b[i].Kind {
			t.Fatalf("same seed diverged at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRandomBudget stops injecting once the budget is spent, and
// Clear disarms entirely.
func TestRandomBudget(t *testing.T) {
	inj := New()
	inj.ArmRandom(1, 1.0, 3, EIO)
	ffs := Wrap(OS, inj)
	dir := t.TempDir()
	fails := 0
	for i := 0; i < 10; i++ {
		if _, err := ffs.Stat(dir); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("budget 3 at rate 1.0 injected %d faults", fails)
	}
	inj.Arm(Rule{Op: OpStat, Kind: ENOSPC})
	if _, err := ffs.Stat(dir); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("scripted ENOSPC expected, got %v", err)
	}
	inj.Clear()
	if _, err := ffs.Stat(dir); err != nil {
		t.Fatalf("after Clear the filesystem must be healthy: %v", err)
	}
	if inj.Injected() != 4 {
		t.Fatalf("event log must survive Clear: %d", inj.Injected())
	}
}

// TestKindCoercion degrades write-only kinds to EIO elsewhere.
func TestKindCoercion(t *testing.T) {
	inj := New()
	inj.Arm(Rule{Op: OpSync, Kind: ShortWrite})
	ffs := Wrap(OS, inj)
	err := ffs.SyncDir(t.TempDir())
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("ShortWrite on sync must coerce to EIO, got %v", err)
	}
	if errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("coerced fault must not read as a short write: %v", err)
	}
}
