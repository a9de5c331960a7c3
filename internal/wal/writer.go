package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"adjarray/internal/iofault"
)

// SyncPolicy selects when the Writer fsyncs appended records.
type SyncPolicy int

const (
	// SyncEveryAppend fsyncs before Append returns: every accepted
	// record is durable when acknowledged. The safe default.
	SyncEveryAppend SyncPolicy = iota
	// SyncInterval fsyncs when Options.Interval has elapsed since the
	// last sync (checked on Append; callers may also Sync explicitly).
	// A crash loses at most the records of the open window.
	SyncInterval
	// SyncNever performs no fsync (Close still syncs); persistence is
	// whatever the OS page cache survives. Nothing is acknowledged
	// durable until an explicit Sync.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryAppend:
		return "batch"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy resolves the CLI spellings of the fsync policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch", "every", "always":
		return SyncEveryAppend, nil
	case "interval":
		return SyncInterval, nil
	case "off", "never", "none":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch|interval|off)", s)
}

// Options tunes a Writer.
type Options struct {
	// Policy selects the fsync discipline (default SyncEveryAppend).
	Policy SyncPolicy
	// Interval is the maximum un-synced window under SyncInterval
	// (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment past this size (default
	// 4 MiB). Smaller segments retire sooner after a checkpoint.
	SegmentBytes int64
	// FS routes every file operation; nil selects the real filesystem.
	// Tests and the crashtest harness install an iofault.FaultFS here.
	FS iofault.FS
}

func (o *Options) defaults() {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FS == nil {
		o.FS = iofault.OS
	}
}

// ErrWedged matches the sticky error a Writer surfaces once a write or
// fsync has failed: errors.Is(err, wal.ErrWedged).
var ErrWedged = errors.New("wal: writer wedged by storage failure")

// WedgedError is the typed error state a Writer enters permanently
// after a failed write or fsync. After a failed fsync the kernel may
// have dropped the dirty pages AND cleared its error flag, so a later
// "successful" fsync would not make the earlier records durable — the
// only honest move is to refuse all further work and freeze DurableSeq
// at the last fsync that succeeded. Err is the failure that wedged the
// writer.
type WedgedError struct {
	Err error
}

func (e *WedgedError) Error() string { return "wal: writer wedged: " + e.Err.Error() }

func (e *WedgedError) Unwrap() error { return e.Err }

func (e *WedgedError) Is(target error) bool { return target == ErrWedged }

// Writer appends records to a segmented log. Not safe for concurrent
// use; the owning view serializes appends under its own lock.
type Writer struct {
	dir  string
	opt  Options
	f    iofault.File
	path string
	size int64

	nextSeq    uint64 // seq the next Append will be assigned
	durableSeq uint64 // highest seq guaranteed on stable storage
	lastSync   time.Time
	buf        []byte
	wedged     error // sticky: the write/fsync failure that stopped the writer
}

// NewWriter opens a fresh segment whose first record will carry seq
// nextSeq (1 for an empty log). Existing segments are left untouched —
// recovery always starts a new segment rather than appending to a file
// whose tail it just validated, so a half-written old tail can never
// damage new records.
func NewWriter(dir string, nextSeq uint64, opt Options) (*Writer, error) {
	opt.defaults()
	if nextSeq == 0 {
		nextSeq = 1
	}
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opt: opt, nextSeq: nextSeq, durableSeq: nextSeq - 1, lastSync: time.Now()}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// segmentName renders the canonical file name for a segment starting
// at seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.seg", seq) }

func (w *Writer) openSegment() error {
	path := filepath.Join(w.dir, segmentName(w.nextSeq))
	f, err := w.opt.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if os.IsExist(err) {
		// A file with this start seq can pre-exist only when a previous
		// process crashed before writing any valid record to it (replay
		// would otherwise have advanced nextSeq past the name). Its
		// contents are therefore dead bytes; truncate and reuse.
		f, err = w.opt.FS.OpenFile(path, os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	}
	if err != nil {
		return err
	}
	// The file must itself survive a crash: fsync its directory entry
	// once at creation, or recovery may find records in a file that is
	// not there.
	if err := w.opt.FS.SyncDir(w.dir); err != nil {
		f.Close() //adjlint:ignore syncerr error-path close; the syncDir failure is the one reported
		return err
	}
	w.f, w.path, w.size = f, path, 0
	return nil
}

// wedge records the first write/fsync failure and returns the typed
// sticky error every subsequent operation will repeat.
func (w *Writer) wedge(err error) error {
	if w.wedged == nil {
		w.wedged = err
	}
	return &WedgedError{Err: w.wedged}
}

// Wedged returns the sticky failure (nil while the writer is healthy).
func (w *Writer) Wedged() error {
	if w.wedged == nil {
		return nil
	}
	return &WedgedError{Err: w.wedged}
}

// Append frames payload as the next record, writes it, and applies the
// sync policy. It returns the record's sequence number. With
// SyncEveryAppend the record is durable on return; under the other
// policies it is durable only once DurableSeq passes it.
//
// A write or fsync failure wedges the writer permanently (see
// WedgedError): the failed bytes may sit torn at the segment tail, and
// appending valid records after them would turn a repairable torn tail
// into unrecoverable mid-log corruption on replay.
func (w *Writer) Append(payload []byte) (uint64, error) {
	if w.wedged != nil {
		return 0, &WedgedError{Err: w.wedged}
	}
	if w.f == nil {
		return 0, fmt.Errorf("wal: writer is closed")
	}
	if int64(w.size) >= w.opt.SegmentBytes && w.size > 0 {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	seq := w.nextSeq
	w.buf = appendRecord(w.buf[:0], seq, payload)
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, w.wedge(fmt.Errorf("wal: append seq %d: %w", seq, err))
	}
	w.size += int64(len(w.buf))
	w.nextSeq++
	switch w.opt.Policy {
	case SyncEveryAppend:
		if err := w.Sync(); err != nil {
			return 0, err
		}
	case SyncInterval:
		if time.Since(w.lastSync) >= w.opt.Interval {
			if err := w.Sync(); err != nil {
				return 0, err
			}
		}
	}
	return seq, nil
}

// rotate syncs and closes the active segment and opens the next one.
func (w *Writer) rotate() error {
	// Always sync a segment before abandoning it: under lazy policies
	// the caller's durability window must not silently extend to "until
	// some old rotated file happens to hit disk".
	if err := w.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return w.wedge(fmt.Errorf("wal: closing rotated segment: %w", err))
	}
	if err := w.openSegment(); err != nil {
		// The old segment is closed and the new one failed to open;
		// there is nowhere consistent to put the next record.
		return w.wedge(err)
	}
	return nil
}

// Sync fsyncs the active segment and advances the durable boundary. A
// failure wedges the writer: DurableSeq stays frozen at the last
// successful fsync, forever.
func (w *Writer) Sync() error {
	if w.wedged != nil {
		return &WedgedError{Err: w.wedged}
	}
	if w.f == nil {
		return fmt.Errorf("wal: writer is closed")
	}
	if err := w.f.Sync(); err != nil {
		return w.wedge(fmt.Errorf("wal: sync: %w", err))
	}
	w.durableSeq = w.nextSeq - 1
	w.lastSync = time.Now()
	return nil
}

// DurableSeq returns the highest sequence number guaranteed on stable
// storage.
func (w *Writer) DurableSeq() uint64 { return w.durableSeq }

// Close syncs and closes the active segment. The Writer is unusable
// afterwards. A wedged writer closes its file descriptor without
// syncing (the sync already failed once; a second "success" would be a
// lie) and reports the sticky error.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	if w.wedged != nil {
		w.f.Close() //adjlint:ignore syncerr wedged writer: the sticky storage failure is the one reported
		w.f = nil
		return &WedgedError{Err: w.wedged}
	}
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
