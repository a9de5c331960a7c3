package iofault

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"strings"
	"sync"
	"syscall"
)

// Kind is the failure mode an injected fault presents.
type Kind uint8

const (
	// EIO is a generic input/output error (errors.Is(err, syscall.EIO)).
	EIO Kind = iota
	// ENOSPC is disk-full (errors.Is(err, syscall.ENOSPC)).
	ENOSPC
	// ShortWrite lands a prefix of the buffer and returns an error
	// (errors.Is(err, io.ErrShortWrite)). Only meaningful on writes;
	// on other operations it degrades to EIO.
	ShortWrite
	// TornWrite lands a prefix whose own tail is scrambled — the state
	// a sector-level tear leaves — and returns EIO. Only meaningful on
	// writes; on other operations it degrades to EIO.
	TornWrite
)

func (k Kind) String() string {
	switch k {
	case EIO:
		return "eio"
	case ENOSPC:
		return "enospc"
	case ShortWrite:
		return "short-write"
	case TornWrite:
		return "torn-write"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// errno is the wrapped cause a Fault of this kind unwraps to.
func (k Kind) errno() error {
	switch k {
	case ENOSPC:
		return syscall.ENOSPC
	case ShortWrite:
		return io.ErrShortWrite
	default:
		return syscall.EIO
	}
}

// ErrInjected matches every error produced by the injector, letting
// tests tell an injected fault from a real one:
// errors.Is(err, iofault.ErrInjected).
var ErrInjected = errors.New("iofault: injected fault")

// Fault is the error an injected failure surfaces. It unwraps to the
// kind's errno (syscall.EIO, syscall.ENOSPC, io.ErrShortWrite) so
// callers' errors.Is checks see what a real disk would have returned.
type Fault struct {
	Op   Op
	Path string
	Kind Kind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("iofault: injected %s on %s %s", f.Kind, f.Op, f.Path)
}

func (f *Fault) Unwrap() error { return f.Kind.errno() }

func (f *Fault) Is(target error) bool { return target == ErrInjected }

// Rule is one scripted fault: fail matching operations with Kind,
// letting After of them through first and firing at most Count times.
type Rule struct {
	// Op is the operation class to match; OpAny matches all.
	Op Op
	// Path, when non-empty, must be a substring of the operation's
	// target path.
	Path string
	// Kind is the failure mode to present.
	Kind Kind
	// After lets this many matching operations through before firing.
	After int
	// Count caps how many times the rule fires; <= 0 means unlimited.
	Count int
}

// Event records one injected fault, in injection order.
type Event struct {
	Op   Op
	Path string
	Kind Kind
}

// Injector decides which operations fail. It supports scripted rules
// (Arm) and a seed-driven random schedule (ArmRandom); both are
// deterministic for a fixed sequence of operations. Safe for
// concurrent use.
type Injector struct {
	mu       sync.Mutex
	rules    []*armedRule
	rng      *rand.Rand
	rate     float64
	budget   int // remaining random faults; <0 unlimited, 0 exhausted
	rndKinds []Kind
	torn     *rand.Rand // torn-write payload scrambler, fixed seed
	events   []Event
}

type armedRule struct {
	Rule
	seen  int
	fired int
}

// New returns a disarmed injector: every operation passes through
// until Arm or ArmRandom is called.
func New() *Injector {
	return &Injector{torn: rand.New(rand.NewSource(0x7461726e))}
}

// Arm adds a scripted rule. Rules are consulted in Arm order, before
// the random schedule.
func (in *Injector) Arm(r Rule) {
	in.mu.Lock()
	in.rules = append(in.rules, &armedRule{Rule: r})
	in.mu.Unlock()
}

// ArmRandom arms a seed-driven random schedule: each operation fails
// with probability rate until budget faults have been injected
// (budget < 0 means unlimited), choosing a kind uniformly from kinds
// (all four when empty). The same seed over the same operation
// sequence injects the same faults.
func (in *Injector) ArmRandom(seed int64, rate float64, budget int, kinds ...Kind) {
	if len(kinds) == 0 {
		kinds = []Kind{EIO, ENOSPC, ShortWrite, TornWrite}
	}
	in.mu.Lock()
	in.rng = rand.New(rand.NewSource(seed))
	in.rate, in.budget = rate, budget
	in.rndKinds = append([]Kind(nil), kinds...)
	in.mu.Unlock()
}

// Clear disarms everything — the fault condition "clears" and the
// filesystem behaves healthily again. The event log survives.
func (in *Injector) Clear() {
	in.mu.Lock()
	in.rules, in.rng, in.rate, in.budget, in.rndKinds = nil, nil, 0, 0, nil
	in.mu.Unlock()
}

// Injected reports how many faults have been injected so far.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.events)
}

// coerce degrades write-only kinds to EIO on non-write operations.
func coerce(op Op, k Kind) Kind {
	if op != OpWrite && (k == ShortWrite || k == TornWrite) {
		return EIO
	}
	return k
}

// decide reports whether op on path should fail, and with what kind.
func (in *Injector) decide(op Op, path string) (Kind, bool) {
	if in == nil {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		return in.recordLocked(op, path, coerce(op, r.Kind)), true
	}
	if in.rng != nil && in.budget != 0 && in.rng.Float64() < in.rate {
		if in.budget > 0 {
			in.budget--
		}
		k := in.rndKinds[in.rng.Intn(len(in.rndKinds))]
		return in.recordLocked(op, path, coerce(op, k)), true
	}
	return 0, false
}

func (in *Injector) recordLocked(op Op, path string, k Kind) Kind {
	in.events = append(in.events, Event{Op: op, Path: path, Kind: k})
	return k
}

// tornLen picks how many bytes of an n-byte write a torn write lands.
func (in *Injector) tornLen(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n <= 0 {
		return 0
	}
	return in.torn.Intn(n + 1)
}

// scramble overwrites p with deterministic garbage.
func (in *Injector) scramble(p []byte) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.torn.Read(p) //adjlint:ignore syncerr math/rand Read never fails
}

// FaultFS routes an inner FS through an Injector. Wrap(nil, inj) wraps
// the real filesystem.
type FaultFS struct {
	inner FS
	inj   *Injector
}

// Wrap builds a FaultFS over inner (OS when nil) driven by inj.
func Wrap(inner FS, inj *Injector) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{inner: inner, inj: inj}
}

// Injector exposes the driving injector (to arm/clear mid-run).
func (f *FaultFS) Injector() *Injector { return f.inj }

func (f *FaultFS) fail(op Op, path string) error {
	if k, ok := f.inj.decide(op, path); ok {
		return &Fault{Op: op, Path: path, Kind: k}
	}
	return nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := f.fail(OpOpen, name); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: file, fs: f, path: name}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.fail(OpOpen, dir); err != nil {
		return nil, err
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: file, fs: f, path: file.Name()}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.fail(OpRead, name); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	k, ok := f.inj.decide(OpWrite, name)
	if !ok {
		return f.inner.WriteFile(name, data, perm)
	}
	fault := &Fault{Op: OpWrite, Path: name, Kind: k}
	switch k {
	case ShortWrite, TornWrite:
		// Land a prefix, as a real interrupted write would.
		if n := len(data) / 2; n > 0 {
			f.inner.WriteFile(name, data[:n], perm) //adjlint:ignore syncerr the injected fault is the one reported
		}
	}
	return fault
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.fail(OpReadDir, name); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.fail(OpMkdir, path); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.fail(OpRemove, name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.fail(OpRename, newpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.fail(OpTruncate, name); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err := f.fail(OpStat, name); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.fail(OpSync, dir); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile routes per-file operations through the injector.
type faultFile struct {
	inner File
	fs    *FaultFS
	path  string
}

func (f *faultFile) Name() string { return f.path }

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.fs.fail(OpRead, f.path); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	k, ok := f.fs.inj.decide(OpWrite, f.path)
	if !ok {
		return f.inner.Write(p)
	}
	fault := &Fault{Op: OpWrite, Path: f.path, Kind: k}
	switch k {
	case ShortWrite:
		// Half the buffer lands; the caller learns about the rest.
		n := len(p) / 2
		if n > 0 {
			n, _ = f.inner.Write(p[:n]) //adjlint:ignore syncerr the injected fault is the one reported
		}
		return n, fault
	case TornWrite:
		// A random-length prefix lands and its own tail is scrambled —
		// the on-disk state a power-cut mid-sector leaves behind.
		n := f.fs.inj.tornLen(len(p))
		if n > 0 {
			torn := make([]byte, n)
			copy(torn, p[:n])
			f.fs.inj.scramble(torn[n/2:])
			n, _ = f.inner.Write(torn) //adjlint:ignore syncerr the injected fault is the one reported
		}
		return n, fault
	default:
		return 0, fault
	}
}

func (f *faultFile) Sync() error {
	if err := f.fs.fail(OpSync, f.path); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }
