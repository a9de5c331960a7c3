package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adjarray/internal/iofault"
	"adjarray/internal/semiring"
	"adjarray/internal/wal"
)

// DurableOptions tunes the durable side of a store opened on a
// directory.
type DurableOptions struct {
	// WAL selects the fsync policy and segment sizing (wal.Options
	// defaults apply).
	WAL wal.Options
	// CheckpointEvery triggers a background checkpoint once this many
	// batches accumulate past the last checkpoint (0: none in the
	// background; Store.Checkpoint still writes one on request).
	CheckpointEvery int
	// FS routes every durable byte — WAL segments, checkpoints,
	// directory fsyncs — through a filesystem seam; nil selects the
	// real filesystem. The fault tests install an iofault.FaultFS here.
	FS iofault.FS
}

// RecoveryInfo describes what Open found in one shard's directory.
type RecoveryInfo struct {
	// CheckpointSeq is the WAL seq the loaded checkpoint covered (0:
	// started from the empty state).
	CheckpointSeq uint64
	// SkippedCheckpoints counts newer checkpoint files that failed
	// validation and were passed over for an older valid one.
	SkippedCheckpoints int
	// Replayed is how many WAL records were re-applied on top of the
	// checkpoint.
	Replayed int
	// TornBytes is how many trailing bytes were truncated from the log
	// as an interrupted final write (0: the log ended cleanly).
	TornBytes int64
	// ReapedTempFiles is how many orphaned checkpoint temp files
	// (ckpt-*.tmp, leftovers of a write that died mid-publish) Open
	// removed.
	ReapedTempFiles int
	// CheckpointLoad is how long reading, validating and decoding the
	// checkpoint took — recovery's cost before the WAL replay.
	CheckpointLoad time.Duration
}

// StorageState is the storage-health state machine a shard surfaces:
// ok → degraded → read-only. An in-memory shard is always ok.
type StorageState int

const (
	// StorageOK: the durable path is healthy.
	StorageOK StorageState = iota
	// StorageDegraded: the last checkpoint attempt failed (after
	// retries). Appends still work and remain durable through the WAL;
	// replay time and log size grow until a checkpoint succeeds. The
	// state clears on the next successful checkpoint.
	StorageDegraded
	// StorageReadOnly: a WAL write or fsync failed. The write path is
	// permanently wedged (see wal.WedgedError); appends are refused
	// with ErrReadOnly while reads keep serving the in-memory view.
	// Recovery is reopening the directory once the fault clears.
	StorageReadOnly
)

func (s StorageState) String() string {
	switch s {
	case StorageOK:
		return "ok"
	case StorageDegraded:
		return "degraded"
	case StorageReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("StorageState(%d)", int(s))
	}
}

// StorageHealth is one shard's position in the state machine.
type StorageHealth struct {
	// State is ok, degraded, or read-only.
	State StorageState
	// Faults counts I/O faults observed on the durable path since
	// Open (failed WAL writes/fsyncs, failed checkpoint attempts).
	Faults uint64
	// Err is the sticky failure (read-only) or the last checkpoint
	// error (degraded); "" when ok.
	Err string
}

// DurabilityStats reports one shard's durability position for health
// endpoints. An in-memory shard reports its Epoch, Policy "none", and
// zeros.
type DurabilityStats struct {
	// Epoch is the number of batches applied to the in-memory view.
	Epoch uint64
	// DurableEpoch is the highest batch acknowledged durable (on
	// stable storage, by fsync or by a covering checkpoint).
	DurableEpoch uint64
	// WALLag = Epoch - DurableEpoch: batches that would be lost by a
	// crash right now.
	WALLag uint64
	// CheckpointSeq is the newest on-disk checkpoint's covered seq.
	CheckpointSeq uint64
	// Checkpoints counts the checkpoints this process has written.
	Checkpoints uint64
	// CheckpointBytes and CheckpointDuration are the size of the last
	// checkpoint written and how long it took from pinning the view to
	// the published file.
	CheckpointBytes    int64
	CheckpointDuration time.Duration
	// Policy is the fsync policy's string form: "batch" (DurableEpoch
	// follows Epoch), "off" (it moves only at Sync, a checkpoint, Close
	// or a segment rotation), or "none" for an in-memory shard.
	Policy string
	// Storage is the store's storage-health state.
	Storage StorageHealth
}

// partition is one shard of a Store: the View that owns its adjacency
// rows plus, when the store was opened on a directory, the write-ahead
// log and checkpoints that make its batches survive process death.
// w == nil is the in-memory shard; that is decided here and tested in
// this type only — every method below has the trivial in-memory answer
// first, so nothing above the partition asks "is there a log".
//
// With a log, every append is applied to the view and then written to
// the WAL, and openPartition rebuilds the identical view from the last
// checkpoint plus the log tail. One WAL record holds one batch, and the
// record's sequence number equals the view's epoch after the batch, so
// "epoch" is the durability unit throughout.
//
// The append path is view-first: a batch the view rejects (key
// discipline, grow failure) never reaches the log, so
// recovery replays only batches that were accepted. The window the
// opposite order would open — a logged batch that fails on replay —
// cannot happen; the crash window that remains (accepted in memory,
// process dies before the log write) loses only a batch that was never
// acknowledged, which is exactly the contract.
type partition[V any] struct {
	v *View[V]

	mu  sync.Mutex
	w   *wal.Writer // nil: in-memory, and every field below is unused
	dir string
	opt DurableOptions

	// What durability and health report. Written under mu where they
	// change, read without it: a checkpoint holds mu for as long as the
	// disk takes, and a liveness probe or a scrape must not wait on that.
	ckptSeq    atomic.Uint64                 // newest on-disk checkpoint's covered seq
	walDurable atomic.Uint64                 // w.DurableSeq() as of the last log operation
	ckpts      atomic.Uint64                 // checkpoints written since Open,
	ckptBytes  atomic.Int64                  // the last one's size
	ckptDur    atomic.Int64                  // and duration (ns)
	storage    atomic.Pointer[StorageHealth] // state and error as of the last change; nil: ok
	faults     atomic.Uint64

	buf     []byte // record encode scratch, reused under mu
	failed  error  // sticky: a WAL write failed after the view applied
	ckptErr error  // last checkpoint failure (degraded); nil after success
	closed  bool

	recovery RecoveryInfo

	notify chan struct{} // batch-count checkpoint trigger
	done   chan struct{}
	bg     sync.WaitGroup
}

// openPartition creates the shard's view — fresh in memory when dir is
// "", recovered from dir otherwise — with prefix seeding its auto-key
// generator unless a checkpoint already carries one.
func openPartition[V any](dir string, ops semiring.Ops[V], prefix string, opt DurableOptions) (*partition[V], error) {
	if dir == "" {
		v := NewView(ops)
		v.autoBase = prefix
		return &partition[V]{v: v}, nil
	}
	fsys := opt.FS

	var rec RecoveryInfo
	// A temp file is never a recovery source; reap orphans before
	// looking for checkpoints so they cannot accumulate across crashes.
	reaped, err := wal.ReapTempCheckpoints(fsys, dir)
	if err != nil {
		return nil, err
	}
	rec.ReapedTempFiles = reaped
	loadStart := time.Now()
	ck, skipped, err := wal.LoadCheckpointFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	rec.SkippedCheckpoints = len(skipped)
	v := NewView(ops)
	var ckptSeq uint64
	if ck != nil {
		ckptSeq = ck.Seq
		v, err = decodeCheckpoint(ck, ops)
		ck.Close() //adjlint:ignore syncerr a file only read; what was decoded from it is checked
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint seq %d: %w", ckptSeq, err)
		}
		if epoch := uint64(v.epoch.Load()); epoch != ckptSeq {
			return nil, fmt.Errorf("stream: checkpoint seq %d holds view epoch %d", ckptSeq, epoch)
		}
		rec.CheckpointSeq, rec.CheckpointLoad = ckptSeq, time.Since(loadStart)
	}
	if v.autoBase == "" {
		v.autoBase = prefix
	}

	expect := ckptSeq
	var edges []Edge[float64] // every record decodes into this one slice
	st, err := wal.ReplayFS(fsys, dir, ckptSeq, func(seq uint64, payload []byte) error {
		if seq != expect+1 {
			return fmt.Errorf("stream: replay reached seq %d at view epoch %d", seq, expect)
		}
		var err error
		if edges, err = decodeBatch(payload, edges); err != nil {
			// The record's checksum held and its contents still do not
			// decode: damage, not an I/O condition.
			return &wal.CorruptError{Path: dir, Reason: fmt.Sprintf("record seq %d: %v", seq, err)}
		}
		if err := v.Append(any(edges).([]Edge[V])); err != nil {
			return fmt.Errorf("stream: replaying wal record seq %d: %w", seq, err)
		}
		expect = seq
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec.Replayed = st.Records
	rec.TornBytes = st.TornBytes

	w, err := wal.NewWriter(fsys, dir, max(st.LastSeq, ckptSeq)+1, opt.WAL)
	if err != nil {
		return nil, err
	}
	p := &partition[V]{
		v: v, w: w, dir: dir, opt: opt, recovery: rec,
		notify: make(chan struct{}, 1), done: make(chan struct{}),
	}
	p.ckptSeq.Store(ckptSeq)
	p.walDurable.Store(w.DurableSeq())
	if opt.CheckpointEvery > 0 {
		p.bg.Add(1)
		go p.checkpointLoop()
	}
	return p, nil
}

func (p *partition[V]) durable() bool { return p.w != nil }

// checkpointLoop is the background checkpoint + retirement worker: it
// wakes on the batch-count trigger and checkpoints when the view
// advanced past the last checkpoint, bounding both replay time and log
// size.
func (p *partition[V]) checkpointLoop() {
	defer p.bg.Done()
	for {
		select {
		case <-p.done:
			return
		case <-p.notify:
		}
		p.mu.Lock()
		if !p.closed && p.failed == nil && p.epoch() > p.ckptSeq.Load() {
			// A failed checkpoint degrades the shard (p.ckptErr, set
			// inside) but must NOT wedge it: the batches are already
			// durable through the WAL, and the next trigger retries.
			p.checkpointLocked() //adjlint:ignore syncerr degraded state carries the error; the next trigger retries
		}
		p.mu.Unlock()
	}
}

// epoch is the view's batch count, read without its lock.
func (p *partition[V]) epoch() uint64 { return uint64(p.v.epoch.Load()) }

// usableLocked is the shared preamble of the durable write operations.
func (p *partition[V]) usableLocked() error {
	if p.closed {
		return fmt.Errorf("stream: store is closed")
	}
	if p.failed != nil {
		return &readOnlyError{err: p.failed}
	}
	return nil
}

// append ingests one batch: the view applies it first (a rejected batch
// touches nothing), then — with a log — the batch is framed into the
// WAL under the configured fsync policy.
func (p *partition[V]) append(edges []Edge[V]) error {
	if p.w == nil {
		return p.v.Append(edges)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.usableLocked(); err != nil {
		return err
	}
	p.buf = appendBatch(p.buf[:0], edges)
	before := p.epoch()
	if err := p.v.Append(edges); err != nil {
		// The batch was rolled back; the view is unchanged and the log
		// must stay unchanged too.
		return err
	}
	_, err := p.w.Append(p.buf)
	p.walDurable.Store(p.w.DurableSeq())
	if err != nil {
		// The view is now ahead of the log; acknowledging further
		// batches would promise durability the log cannot deliver.
		return p.storageFailedLocked(err)
	}
	if p.opt.CheckpointEvery > 0 && before+1-p.ckptSeq.Load() >= uint64(p.opt.CheckpointEvery) {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

// storageFailedLocked records the sticky WAL failure and returns it
// wrapped so it (and every subsequent refusal) matches ErrReadOnly.
func (p *partition[V]) storageFailedLocked(err error) error {
	if p.failed == nil {
		p.failed = err
		p.faults.Add(1)
		p.publishStorageLocked()
	}
	return &readOnlyError{err: p.failed}
}

// publishStorageLocked republishes the state machine's position for the
// lock-free readers; call it wherever failed or ckptErr changes.
func (p *partition[V]) publishStorageLocked() {
	var h StorageHealth
	switch {
	case p.failed != nil:
		h = StorageHealth{State: StorageReadOnly, Err: p.failed.Error()}
	case p.ckptErr != nil:
		h = StorageHealth{State: StorageDegraded, Err: p.ckptErr.Error()}
	}
	p.storage.Store(&h)
}

func (p *partition[V]) sync() error {
	if p.w == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.usableLocked(); err != nil {
		return err
	}
	err := p.w.Sync()
	p.walDurable.Store(p.w.DurableSeq())
	if err != nil {
		return p.storageFailedLocked(err)
	}
	return nil
}

func (p *partition[V]) checkpoint() error {
	if p.w == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.usableLocked(); err != nil {
		return err
	}
	return p.checkpointLocked()
}

const (
	// keepCheckpoints is how many checkpoint files are retained: the
	// newest is the recovery source, the one before it the corruption
	// fallback.
	keepCheckpoints = 2
	// checkpointRetries is how many extra attempts a failed checkpoint
	// write gets before it is abandoned until the next trigger
	// (transient ENOSPC/EIO may clear).
	checkpointRetries = 2
	// checkpointBackoff is the delay before the first retry, doubling
	// each retry. Appends stall for the backoff total in the worst case,
	// so it stays small.
	checkpointBackoff = 5 * time.Millisecond
)

// checkpointLocked writes a checkpoint of the view's current epoch,
// unless the newest one already covers it. The view lock is held only to
// fold and to pin the image — O(1) past the fold; the encode and every
// filesystem call run with it released, so readers never wait on a
// checkpoint. p.mu stays held throughout: no batch reaches the view or
// the log while its checkpoint is being written.
func (p *partition[V]) checkpointLocked() error {
	v := p.v
	start := time.Now()
	v.mu.Lock()
	if uint64(v.epoch.Load()) == p.ckptSeq.Load() {
		v.mu.Unlock()
		return nil
	}
	if err := v.materializeLocked(); err != nil {
		// A view-maintenance failure, not a storage fault: report it
		// without touching the storage-health state.
		v.mu.Unlock()
		return err
	}
	im := v.imageLocked()
	v.mu.Unlock()
	seq := uint64(im.epoch)
	emit := func(w *wal.CheckpointWriter) error { return im.encode(w) }
	// The write phase retries: ENOSPC/EIO can be transient (space
	// freed, path remounted), and the temp-file dance is idempotent.
	// Appends stall on p.mu for the backoff total, so it stays capped.
	fsys, backoff := p.opt.FS, checkpointBackoff
	for attempt := 0; ; attempt++ {
		_, size, err := wal.WriteCheckpointFS(fsys, p.dir, seq, emit)
		if err == nil {
			p.ckptBytes.Store(size)
			break
		}
		p.faults.Add(1)
		// The failed attempt may have orphaned its temp file (its own
		// cleanup can fault too); reap best-effort.
		wal.ReapTempCheckpoints(fsys, p.dir) //adjlint:ignore syncerr best-effort reap; the write error is the one reported
		if attempt >= checkpointRetries {
			p.ckptErr = err
			p.publishStorageLocked()
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	p.ckptSeq.Store(seq)
	p.ckptDur.Store(int64(time.Since(start)))
	p.ckpts.Add(1)
	// The checkpoint itself is durable; failed retirement only leaves
	// extra files behind. Degraded, not fatal.
	_, err := wal.RetireCheckpointsFS(fsys, p.dir, keepCheckpoints)
	if err == nil {
		_, err = wal.RetireSegmentsFS(fsys, p.dir, seq)
	}
	if err != nil {
		p.faults.Add(1)
	}
	p.ckptErr = err
	p.publishStorageLocked()
	return err
}

// health reports the shard's position in the ok → degraded → read-only
// state machine, without taking the partition lock.
func (p *partition[V]) health() StorageHealth {
	h := StorageHealth{}
	if pub := p.storage.Load(); pub != nil {
		h = *pub
	}
	h.Faults = p.faults.Load()
	return h
}

// durability reports the shard's durability position without taking the
// partition lock (see the counters' comment): each field is what the
// last completed operation left, so a probe during a checkpoint reads
// the position before it.
func (p *partition[V]) durability() DurabilityStats {
	if p.w == nil {
		return DurabilityStats{Epoch: p.epoch(), Policy: "none"}
	}
	// The durable boundary first: read the other way round, a batch that
	// lands in between would show as durable past the epoch.
	ckptSeq := p.ckptSeq.Load()
	durable := max(ckptSeq, p.walDurable.Load())
	epoch := p.epoch()
	lag := uint64(0)
	if epoch > durable {
		lag = epoch - durable
	}
	return DurabilityStats{
		Epoch:              epoch,
		DurableEpoch:       durable,
		WALLag:             lag,
		CheckpointSeq:      ckptSeq,
		Checkpoints:        p.ckpts.Load(),
		CheckpointBytes:    p.ckptBytes.Load(),
		CheckpointDuration: time.Duration(p.ckptDur.Load()),
		Policy:             p.opt.WAL.Policy.String(),
		Storage:            p.health(),
	}
}

// close syncs the log and releases the shard, reporting a sticky write
// failure if the log itself closed cleanly.
func (p *partition[V]) close() error { return p.release(false) }

// abort is close without the promise: the crash-simulation hook. The log
// is abandoned unsynced, so the durable epoch stays where the fsync
// policy left it.
func (p *partition[V]) abort() { p.release(true) }

// release marks the shard closed, stops its background checkpoints and
// closes its log — or, with abandon, lets go of it unsynced.
func (p *partition[V]) release(abandon bool) error {
	if p.w == nil {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	var err error
	if abandon {
		p.w.Abandon()
	} else {
		err = p.w.Close()
	}
	p.walDurable.Store(p.w.DurableSeq())
	if err == nil {
		err = p.failed
	}
	p.mu.Unlock()
	p.bg.Wait()
	return err
}
