// Package stream maintains an adjacency array under continuous edge
// ingest — the paper's construction A = Eoutᵀ ⊕.⊗ Ein turned from a
// batch computation into a served, incrementally updated state.
//
// The edge dimension is the reduction dimension of the construction, so
// an appended edge batch K′ contributes exactly one shard-style partial
// product:
//
//	A ⊕= Eout[K′,:]ᵀ ⊕.⊗ Ein[K′,:]
//
// (the delta identity), and that makes an append cost O(|K′|). A View
// honours the bound by storing everything an append touches in
// coordinates that never move. Endpoint strings go through per-side
// slab-backed interners (keys.Interner): every distinct vertex is stored
// once and gets a dense id in arrival order, stable for the life of the
// view. The edge log is flat append-only columns — source id and
// destination id of every edge, and only what those do not imply: an edge
// key is stored when the caller gave it, while generated keys, which are
// arrival order under a prefix, are kept as runs (first log index, base,
// first sequence number — keyCol), and an incidence value column exists
// from the first edge that carries a weight on that side, every value
// before that being the algebra's One (Definition I.4 asks only that an
// entry be non-zero; Figure 1's unweighted arrays are this case). An
// unkeyed, unweighted edge costs its 8 bytes of ids — in memory, in a
// checkpoint, and, give or take the endpoint strings, in the WAL. The
// edges not yet folded into the adjacency are a suffix of that log and
// nothing more: no second copy of them is kept. A new vertex, wherever
// its key sorts, gets the next id and moves nothing, so Append is one
// path: validate the keys, intern the endpoints, append to the columns.
//
// Key order — the order of Definition I.1's key sets, which the
// adjacency array and the incidence arrays are stored in — is
// established only where it is consumed. The fold that brings the
// adjacency up to the log — run when a whole-array read, a checkpoint or
// Compact needs it, never by an append on its own account and not by a
// read of one cell or row — first syncs the
// vertex universe: the ids first referenced since the last fold are
// collected, only THEIR keys are sorted, one merge sweep per side folds
// them into the sorted key Sets, and a new id → position array per side
// is built (the Sets are Bound to the interners through those arrays, so
// every downstream key lookup resolves through the same hash table
// instead of a per-Set map). The unfolded suffix's endpoint ids are then
// mapped to positions in that universe and folded by
// sparse.FoldUnitRows — the kernel that builds an adjacency array from a
// graph's incidence columns in one shot; the suffix IS such a pair of
// columns, and the kernel takes the ⊗-products on the way. A fold that
// meets an empty adjacency is that batch construction and nothing else:
// its result becomes the adjacency. Otherwise merging the fold into the
// adjacency is also what carries the adjacency into a universe the sync
// grew: the merge reads the old array through the position maps the
// sync's sweep produced, one pass from the old storage into the new, and
// no embedded copy is made first. The key-ordered incidence arrays Eout
// and Ein themselves are built from the log on request (Snapshot.Logs),
// which only Compact and callers that want the arrays ask for — that
// build is the one place generated keys are formatted and unit weights
// written out, once per epoch; a checkpoint stores the log as it lies
// here, by id and with the same columns left out (checkpoint.go).
//
// Soundness hypothesis: folding a delta into already-folded state
// re-associates the per-cell ⊕ fold — ((earlier edges) ⊕ (delta))
// instead of the flat left-to-right fold over all edge keys. Because
// edge keys are required to arrive in ascending order, the fold ORDER
// is preserved and only the grouping changes, so the incremental state
// equals the one-shot construction exactly when ⊕ is associative on the
// data (the hypothesis semiring.CheckAssociativeValues samples, per the
// paper's companion work on algebraic conditions). For a non-associative ⊕ the
// view still ingests — deterministically — but may diverge from the
// batch result; Compact rebuilds from the full log and recovers it.
// Options.CheckAssociative samples the hypothesis on every append and
// fails fast instead.
//
// Reads are served from two kinds of pin, both immutable views that share
// storage with the live state (copy-on-write — an append never mutates
// storage reachable from a handed-out pin), so that readers never block
// ingest. The whole-array pin, Snapshot, is what a consumer of the
// adjacency as one array takes (a graph kernel, the gather, a checkpoint):
// it folds the log's unfolded suffix first and is O(1) when there is none.
// The point pin, Point, is what a read of one cell or one row takes: it
// never folds (up to a threshold, pointFoldShare) and answers from the
// materialized array ⊕ the suffix, scanned — the delta identity read
// instead of applied, O(suffix) per read and no allocation to pin.
package stream

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
)

// Edge is one ingested edge: key k, source, destination, and the two
// incidence entry values Eout(k,Src) and Ein(k,Dst).
//
// Weight presence is EXPLICIT: Out is used only when HasOut is set (and
// In only when HasIn is set); an unset side selects the algebra's One —
// the unweighted convention of Figure 1. The flags replace an earlier
// Zero-value sentinel ("a value equal to the algebra's Zero selects
// One"), which was wrong for any algebra whose One is not Go's zero
// value — under min.* (One = 1) an omitted weight ingested as the
// number 0.0, and a genuine Zero-valued weight was unrepresentable
// (silently rewritten to One) under every pair. With the flags an
// explicit weight always round-trips, including explicit Zero, whose
// edge then contributes nothing to the adjacency (0 annihilates ⊗ under
// the Theorem II.1 conditions) — the algebraic spelling of "no edge".
type Edge[V any] struct {
	Key, Src, Dst string
	Out, In       V
	// HasOut and HasIn mark Out / In as explicitly provided. The zero
	// value (unset) means "unweighted": the side ingests as ops.One.
	HasOut, HasIn bool
}

// Weighted builds an edge with both incidence values explicitly set —
// the common literal for weighted ingest call sites.
func Weighted[V any](key, src, dst string, out, in V) Edge[V] {
	return Edge[V]{Key: key, Src: src, Dst: dst, Out: out, In: in, HasOut: true, HasIn: true}
}

// Options tunes a View.
type Options struct {
	// CompactEvery, when > 0, triggers an automatic Compact after that
	// many appends — bounding drift for non-associative ⊕ and re-packing
	// storage. 0 disables auto-compaction.
	CompactEvery int
	// CheckAssociative, when set, samples the delta-identity hypotheses
	// (⊕ associative, Zero a ⊕-identity) over each batch's values before
	// accepting it and fails the Append if the re-associated fold could
	// diverge (semiring.CheckAssociativeValues).
	CheckAssociative bool
}

// View is a maintained adjacency array: an append-only edge log and the
// current A = Eoutᵀ ⊕.⊗ Ein, updated per batch by the delta identity.
// All methods are safe for concurrent use; reads go through one of two
// pins, neither of which blocks on ingest more than the O(1) bookkeeping
// under the lock: Snapshot (the whole array — plus a fold when appends
// happened since the last one) and Point (one cell or row — no fold; see
// PointSnapshot).
//
// The adjacency is held in two levels, LSM-style: `main`, the
// materialized array snapshots share, and the pending level — which is
// no structure of its own but the suffix of the edge log that main does
// not cover yet, log[folded:]. Level order is fold order: main holds the
// earlier edge keys, so a fold re-associates but never reorders
// contributions — and the first fold, which meets an empty main, does
// not even re-associate: it is the batch construction over its edges.
//
// An Append costs O(batch) whatever the view holds and whatever the
// batch introduces: the log is indexed by interner id, and ids never
// move (see the package comment). Everything that depends on key
// ORDER — the sorted vertex universe, the id → position arrays, main's
// key sets — is brought up to date by the fold, once per fold, and a
// fold has one trigger: someone needs main to be the whole adjacency
// (Snapshot, a checkpoint's pin, Compact), never an append: the suffix
// costs nothing beyond the log itself. A bulk load nobody reads is
// therefore appends only, and its first whole-array read pays one fold —
// what batch construction over the same edges costs. A point read (Point)
// is not such a someone: it reads main's cell and the suffix's
// contributions to it and ⊕-combines them as the fold would, main on the
// left because main holds the earlier edge keys, and makes the view fold
// only once the suffix has grown past max(foldScratchKeep,
// main.NNZ()/pointFoldShare) edges — so under point reads alone
// Stats.PendingNNZ stays non-zero, bounded by that.
type View[V any] struct {
	mu  sync.Mutex
	ops semiring.Ops[V]
	opt Options

	// The edge log, one entry per edge in arrival order — which the key
	// discipline makes ascending key order. Append-only: an entry is
	// never rewritten once its batch committed, so a Snapshot captures
	// the log by slice header. The key-ordered incidence arrays are
	// built from it on request (Snapshot.Logs).
	//
	// Only the endpoint ids are stored for every edge; their length is
	// the log's. The key column spells out caller-given keys and keeps
	// generated ones as runs (keyCol). A value column exists only from
	// the first edge that carried a weight on that side (Edge.HasOut /
	// HasIn — the flag, not a comparison with One): while it is nil every
	// entry on that side is ops.One, and the edge that ends that fills a
	// NEW slice with One up to itself, so a logView pinned earlier keeps
	// reading its own nil column.
	keys         keyCol
	srcID, dstID []int32 // endpoint ids in srcIn / dstIn
	out, in      []V     // Eout(k, src), Ein(k, dst); nil: all ops.One

	// srcIn/dstIn intern endpoint strings to stable dense ids.
	srcIn, dstIn *keys.Interner

	// The vertex universe as of the last sync (syncUniverseLocked):
	// uRows/uCols are the sorted key sets of the endpoints of
	// keys[:synced], srcPos/dstPos map an id to its position in them
	// (-1 or out of range: not in the universe — an id first referenced
	// past synced, or left behind by a rolled-back batch). The position
	// arrays are REPLACED, never mutated, when the universe grows, so
	// the InternIndex bindings handed to older Sets keep describing the
	// universe those Sets froze.
	uRows, uCols *keys.Set
	//adjlint:cow
	srcPos, dstPos []int32
	synced         int

	main       *assoc.Array[V] // materialized adjacency (snapshots share it); spans uRows × uCols
	folded     int             // main covers log[:folded]; the rest is the pending level
	mainShared bool            // a Snapshot or a PointSnapshot holds main's storage
	mainScr    sparse.MergeScratch[V]

	// logs is what Snapshot hands out for the current log and universe;
	// nil once an append moved either. Keeping it lets every snapshot of
	// one epoch (and Compact) share one build of the incidence arrays,
	// keeps a clean Snapshot allocation-free, and is the log a checkpoint
	// pins.
	logs *logView[V]

	appends int // batches since the last compact
	// epoch counts the batches ever applied. Written under mu, it is also
	// read without it: a point read reports its siblings' epochs
	// (Store.OwnerSnapshot) and must not wait out a sibling's fold for a
	// number.
	epoch     atomic.Int64
	exact     bool
	autoSeq   int    // generator for auto-assigned edge keys
	autoBase  string // prefix for auto keys: "" selects "e"; a Store gives each of several shards its own
	folds     int    // folds run (Stats.Folds)
	foldNanos int64  // time spent in them (Stats.FoldNanos)

	scr batchScratch[V] // per-append and per-fold buffers, reused under mu

	// failpoint, when set (tests only), is consulted at named sites
	// inside Append and at the start of a fold; a non-nil return aborts
	// the append (or the fold) there. It exists to prove the rollback
	// below restores the view exactly, and that a store reports a failed
	// fold by its shard.
	failpoint func(site string) error
}

// fail triggers the test failpoint at a named site.
func (v *View[V]) fail(site string) error {
	if v.failpoint != nil {
		return v.failpoint(site)
	}
	return nil
}

// committedError marks an error raised AFTER a batch was fully
// committed (counters bumped, edges in the log) by follow-on
// maintenance — a budgeted fold or an auto-compact. Rolling the batch
// back there would be wrong (the maintenance may have merged in place),
// so Append lets it through without restoring.
type committedError struct{ err error }

func (e *committedError) Error() string { return e.err.Error() }
func (e *committedError) Unwrap() error { return e.err }

// appendRollback is the state an in-flight append changes before its
// commit point: the lengths of the append-only slices and the counters.
// Restoring them restores the view bit for bit — entries past a
// restored length are garbage a future append overwrites before
// anything reads them, and no Snapshot can have captured them (it takes
// the lock the append holds).
type appendRollback struct {
	nLog            int
	nRuns, nSpelled int  // the key column's lengths
	hasOut, hasIn   bool // whether the value columns existed
	appends         int
	epoch           int64
	autoSeq         int
	autoBase        string
}

func (v *View[V]) captureLocked() appendRollback {
	return appendRollback{
		nLog:  len(v.srcID),
		nRuns: len(v.keys.runs), nSpelled: len(v.keys.spelled),
		hasOut: v.out != nil, hasIn: v.in != nil,
		appends: v.appends, epoch: v.epoch.Load(),
		autoSeq: v.autoSeq, autoBase: v.autoBase,
	}
}

// rollbackLocked restores the captured state for a batch that failed
// before its commit point — unless err is a committedError, in which
// case the batch stays applied and only the maintenance error
// propagates. Interner ids assigned for a rolled-back batch stay behind
// as orphans no log entry references; the universe sync never sees
// them, and picks one up like any new id if a later batch uses its key.
func (v *View[V]) rollbackLocked(rb appendRollback, err error) error {
	if ce, ok := err.(*committedError); ok {
		return ce.err
	}
	v.keys.runs, v.keys.spelled = v.keys.runs[:rb.nRuns], v.keys.spelled[:rb.nSpelled]
	v.srcID, v.dstID = v.srcID[:rb.nLog], v.dstID[:rb.nLog]
	// The columns are truncated as they lie: one the batch brought into
	// being goes back to not existing.
	v.out, v.in = truncateVals(v.out, rb.hasOut, rb.nLog), truncateVals(v.in, rb.hasIn, rb.nLog)
	v.appends = rb.appends
	v.epoch.Store(rb.epoch)
	v.autoSeq, v.autoBase = rb.autoSeq, rb.autoBase
	return err
}

func truncateVals[V any](col []V, existed bool, n int) []V {
	if !existed {
		return nil
	}
	return col[:n]
}

// batchScratch holds the per-append and per-fold buffers. Both run
// under the view lock, so one set per view suffices; in steady state the
// ingest path allocates only on amortized slice growth.
type batchScratch[V any] struct {
	srcs, dsts     []string
	outs, ins      []V
	srcIDs, dstIDs []int32 // interner ids, parallel to srcs/dsts
	// materialize: the unfolded suffix's endpoints as universe positions,
	// One for a value column the log does not hold, and the array they
	// fold into
	foldRow, foldCol []int32
	ones             []V
	fold             sparse.FoldScratch[V]
}

// NewView creates an empty view for the given operator pair.
func NewView[V any](ops semiring.Ops[V], opt Options) *View[V] {
	main := assoc.FromTriples[V](nil, nil)
	return &View[V]{
		ops:   ops,
		opt:   opt,
		srcIn: keys.NewInterner(),
		dstIn: keys.NewInterner(),
		uRows: main.RowKeys(),
		uCols: main.ColKeys(),
		main:  main,
		exact: true,
	}
}

// FromIncidence bootstraps a view from an existing batch-built pair of
// incidence arrays: the initial adjacency is constructed one-shot (the
// exact sequential fold), and subsequent Appends apply deltas on top.
// Every row must hold exactly one entry per side (Definition I.4) — the
// shape the edge log stores.
func FromIncidence[V any](eout, ein *assoc.Array[V], ops semiring.Ops[V], opt Options) (*View[V], error) {
	if !eout.RowKeys().Equal(ein.RowKeys()) {
		return nil, fmt.Errorf("stream: incidence arrays disagree on edge keys")
	}
	v := NewView(ops, opt)
	if eout.RowKeys().Len() == 0 {
		return v, nil
	}
	adj, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		return nil, err
	}
	v.keys = spelledKeys(eout.RowKeys().Keys())
	if v.srcPos, v.srcID, v.out, err = bootstrapSide(v.srcIn, eout); err != nil {
		return nil, err
	}
	if v.dstPos, v.dstID, v.in, err = bootstrapSide(v.dstIn, ein); err != nil {
		return nil, err
	}
	v.uRows, v.uCols, v.main = eout.ColKeys(), ein.ColKeys(), adj
	v.synced, v.folded = len(v.srcID), len(v.srcID)
	return v, nil
}

// spelledKeys is the key column of a log whose keys are all given.
func spelledKeys(ks []string) keyCol {
	if len(ks) == 0 {
		return keyCol{}
	}
	return keyCol{runs: []keyRun{{}}, spelled: ks}
}

// bootstrapSide interns one bootstrap array's column universe, binds the
// key Set to the interner, and reads the array's unit rows back into log
// columns.
func bootstrapSide[V any](in *keys.Interner, a *assoc.Array[V]) (pos, ids []int32, vals []V, err error) {
	set := a.ColKeys()
	colID := make([]int32, set.Len())
	for j := range colID {
		colID[j] = in.Intern(set.Key(j))
	}
	pos = make([]int32, in.Len())
	for j, id := range colID {
		pos[id] = int32(j)
	}
	set.Bind(&keys.InternIndex{In: in, Pos: pos})
	ids, vals, err = unitRowIDs(a.Matrix(), colID)
	return pos, ids, vals, err
}

// unitRowIDs reads an incidence matrix — exactly one entry per row
// (Definition I.4) — back into log columns: each row's vertex id (colID
// maps a column position to its interner id) and its value.
func unitRowIDs[V any](m *sparse.CSR[V], colID []int32) (ids []int32, vals []V, err error) {
	ids, vals = make([]int32, m.Rows()), make([]V, m.Rows())
	for i := range ids {
		cols, vs := m.Row(i)
		if len(cols) != 1 {
			return nil, nil, fmt.Errorf("stream: incidence row %d holds %d entries, want exactly one", i, len(cols))
		}
		ids[i], vals[i] = colID[cols[0]], vs[0]
	}
	return ids, vals, nil
}

// grow returns s with room for n more elements, doubling on growth: the
// built-in append backs off to ~1.25x for large slices, which costs
// ~2.5x more copying over an append-only log's lifetime (internal/sparse
// and internal/keys grow their logs the same way).
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), max(2*len(s), len(s)+n))
	copy(out, s)
	return out
}

// Append ingests one edge batch. Edge keys must be strictly increasing
// within the batch and sort after every key already in the log (the
// append-only discipline that keeps fold order equal to arrival order);
// an empty Key is auto-assigned from the view's monotone generator —
// don't mix auto-assigned and explicit keys. Duplicate keys are
// rejected. The caller's slice is never written. A batch is applied
// whole or not at all.
func (v *View[V]) Append(edges []Edge[V]) error {
	if len(edges) == 0 {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	rb := v.captureLocked()
	if err := v.appendLocked(edges); err != nil {
		return v.rollbackLocked(rb, err)
	}
	return nil
}

// appendLocked is Append under the lock: validate, intern, log, count —
// then the budget and compaction policies, whose failures are
// committedErrors. Nothing of the view is touched before the batch has
// passed every check.
func (v *View[V]) appendLocked(edges []Edge[V]) error {
	ops := v.ops
	s := &v.scr
	n0, n := len(v.srcID), len(edges)
	var last keyRef
	if n0 > 0 {
		last = v.keys.ref(n0 - 1)
	}
	// Keys are checked as references: a generated key is a sequence
	// number under the generator's base, compared as a number while it
	// follows a key of its own run and formatted only where it meets
	// another kind of key. The generator state moves only if the batch
	// commits.
	base, seq := v.autoBase, v.autoSeq
	if i := slices.IndexFunc(edges, func(e Edge[V]) bool { return e.Key == "" }); i >= 0 {
		if base == "" {
			base = "e"
		}
		if n0 > 0 && !last.less(keyRef{s: base, seq: seq + i, auto: true}) {
			// The next generated key would not sort after the log (a
			// bootstrap or a recovered log with other keys): reseed the
			// generator past the log's last key.
			base, seq = last.String()+"+", -i
		}
	}
	keyOf := func(i int) keyRef {
		if k := edges[i].Key; k != "" {
			return keyRef{s: k}
		}
		return keyRef{s: base, seq: seq + i, auto: true}
	}
	s.srcs, s.dsts = s.srcs[:0], s.dsts[:0]
	s.outs, s.ins = s.outs[:0], s.ins[:0]
	var prev keyRef
	given := 0
	hasOut, hasIn := v.out != nil, v.in != nil
	for i, e := range edges {
		key := keyOf(i)
		if e.Key != "" {
			given++
		}
		if i > 0 && !prev.less(key) {
			return fmt.Errorf("stream: batch edge keys not strictly increasing at %d: %q <= %q", i, key, prev)
		}
		prev = key
		ov, iv := e.Out, e.In
		if !e.HasOut {
			ov = ops.One
		}
		if !e.HasIn {
			iv = ops.One
		}
		hasOut, hasIn = hasOut || e.HasOut, hasIn || e.HasIn
		s.srcs = append(s.srcs, e.Src)
		s.dsts = append(s.dsts, e.Dst)
		s.outs = append(s.outs, ov)
		s.ins = append(s.ins, iv)
	}
	if first := keyOf(0); n0 > 0 && !last.less(first) {
		return fmt.Errorf("stream: batch key %q does not sort after the log's last key %q", first, last)
	}
	if v.opt.CheckAssociative {
		if err := v.checkBatchAssociativeLocked(); err != nil {
			return err
		}
	}

	// One lock acquisition per side resolves the whole batch to interner
	// ids, new vertices included: a new key takes the next id, and no
	// existing id — so nothing already stored — moves.
	s.srcIDs, s.dstIDs = grow(s.srcIDs[:0], n)[:n], grow(s.dstIDs[:0], n)[:n]
	v.srcIn.InternBatch(s.srcs, s.srcIDs)
	v.dstIn.InternBatch(s.dsts, s.dstIDs)
	if err := v.fail("append:interned"); err != nil {
		return err
	}
	// A batch of generated keys that continues the log's run adds nothing
	// to the key column; one of unweighted edges nothing to a value column
	// that does not exist yet.
	v.keys.spelled = grow(v.keys.spelled, given)
	for i := range edges {
		v.keys.add(n0+i, keyOf(i))
	}
	v.srcID = append(grow(v.srcID, n), s.srcIDs...)
	v.dstID = append(grow(v.dstID, n), s.dstIDs...)
	v.out = appendColumn(v.out, hasOut, n0, s.outs, ops.One)
	v.in = appendColumn(v.in, hasIn, n0, s.ins, ops.One)
	if err := v.fail("append:logged"); err != nil {
		return err
	}
	v.appends++
	v.epoch.Add(1)
	v.autoBase, v.autoSeq = base, seq+n
	if err := v.fail("commit:counted"); err != nil {
		return err
	}
	// Committed: from here on v.logs no longer describes the log, and a
	// failure is the maintenance's, not the batch's.
	v.logs = nil
	if v.opt.CompactEvery > 0 && v.appends >= v.opt.CompactEvery {
		if err := v.compactLocked(); err != nil {
			return &committedError{err}
		}
	}
	return nil
}

// appendColumn appends a batch's values to one value column of the log. A
// column exists only once an edge has carried a weight on its side: the
// first that does brings it into being, One for every earlier edge.
func appendColumn[V any](col []V, exists bool, n0 int, vals []V, one V) []V {
	if !exists {
		return nil
	}
	if col == nil {
		col = make([]V, n0, max(2*n0, n0+len(vals)))
		for i := range col {
			col[i] = one
		}
	}
	return append(grow(col, len(vals)), vals...)
}

// checkBatchAssociativeLocked samples the associativity guard over the
// staged batch's values and their ⊗-products — the values the deferred
// fold will actually combine.
func (v *View[V]) checkBatchAssociativeLocked() error {
	s := &v.scr
	ops := v.ops
	sample := make([]V, 0, 12)
	for i := range s.outs {
		if len(sample) >= 12 {
			break
		}
		sample = append(sample, s.outs[i])
		if len(sample) < 12 {
			sample = append(sample, s.ins[i])
		}
		if len(sample) < 12 {
			sample = append(sample, ops.Mul(s.outs[i], s.ins[i]))
		}
	}
	if err := semiring.CheckAssociativeValues(ops, sample); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// syncUniverseLocked brings the sorted vertex universe up to the log:
// the endpoints of the entries appended since the last sync join uRows
// and uCols. This is the one place key order is established for what
// appends stored by id, and it costs O(new entries + universe) — once per
// fold, not once per batch. main is NOT touched: it keeps spanning the
// key sets it was built over, and the returned maps say where those sit
// in the grown ones (nil: where they were), so the caller's merge reads
// main through them and no embedded copy of main is made on the way.
// Callers re-establish "main spans uRows × uCols" before releasing the
// lock (materializeLocked, compactLocked).
func (v *View[V]) syncUniverseLocked() (rowMap, colMap []int32, err error) {
	if v.synced == len(v.srcID) {
		return nil, nil, nil
	}
	uRows, srcPos, rowMap, err := growSide(v.srcIn, v.uRows, v.srcPos, v.srcID[v.synced:])
	if err != nil {
		return nil, nil, err
	}
	uCols, dstPos, colMap, err := growSide(v.dstIn, v.uCols, v.dstPos, v.dstID[v.synced:])
	if err != nil {
		return nil, nil, err
	}
	v.uRows, v.srcPos, v.uCols, v.dstPos = uRows, srcPos, uCols, dstPos
	v.synced = len(v.srcID)
	return rowMap, colMap, nil
}

// respanMainLocked embeds main alone into a universe that a sync grew
// and no merge followed — the backlog folded to nothing, or the fold
// failed — through the maps that sync returned. Values are shared, so
// mainShared stays as it is.
func (v *View[V]) respanMainLocked(rowMap, colMap []int32) error {
	if v.main.RowKeys() == v.uRows && v.main.ColKeys() == v.uCols {
		return nil
	}
	m, err := sparse.Embed(v.main.Matrix(), rowMap, colMap, v.uRows.Len(), v.uCols.Len())
	if err != nil {
		return err
	}
	main, err := assoc.New(v.uRows, v.uCols, m)
	if err != nil {
		return err
	}
	v.main = main
	return nil
}

// growSide returns one side's universe grown to cover ids — the
// interner ids of the log entries appended since the last sync. The ids
// not yet in the universe are collected, ONLY their keys are sorted
// (the interner already deduplicated them), and one merge sweep unions
// them into the sorted key Set, yielding the position maps for free.
// pos is never written: growth builds a new id → position array and
// binds it to the new Set. oldPos maps a position in set to its position
// in the grown Set (nil: unchanged). With nothing new, set and pos come
// back as they are.
func growSide(in *keys.Interner, set *keys.Set, pos []int32, ids []int32) (grownSet *keys.Set, grown, oldPos []int32, err error) {
	// grown is pos extended over the whole interner, made on the first
	// new id; -2 marks "queued".
	var freshIDs []int32
	var fresh []string // their keys
	for _, id := range ids {
		if int(id) < len(pos) && pos[id] >= 0 {
			continue
		}
		if grown == nil {
			grown = make([]int32, in.Len())
			for i := copy(grown, pos); i < len(grown); i++ {
				grown[i] = -1
			}
		}
		if grown[id] == -1 {
			grown[id] = -2
			freshIDs = append(freshIDs, id)
			fresh = append(fresh, in.Key(id))
		}
	}
	if grown == nil {
		return set, pos, nil, nil
	}
	keys.SortKeys(fresh, freshIDs)
	extra, err := keys.FromSorted(fresh)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("stream: new vertex keys: %w", err)
	}
	grownSet, oldPos, extraPos := set.UnionOffsets(extra)
	if oldPos != nil {
		for id, p := range grown {
			if p >= 0 {
				grown[id] = oldPos[p]
			}
		}
	}
	for j, id := range freshIDs {
		p := int32(j)
		if extraPos != nil {
			p = extraPos[j]
		}
		grown[id] = p
	}
	grownSet.Bind(&keys.InternIndex{In: in, Pos: grown})
	return grownSet, grown, oldPos, nil
}

// foldScratchKeep is the largest fold, in edges, whose buffers stay with
// the view for the next one. A serving view folds a batch or a few
// between reads; a bulk load's one fold is the size of the log, and
// scratch sized by it would sit at ~20 B per loaded edge under every
// later fold a thousandth its size.
const foldScratchKeep = 1 << 12

// pointFoldShare sets where a point read stops scanning the unfolded
// suffix and folds it instead (View.Point): past
// max(foldScratchKeep, main.NNZ()/pointFoldShare) edges. Derived from the
// two costs, not tuned: a read scans the suffix at ≈1 ns per edge, a fold
// costs ≈100 ns per suffix edge plus a 12 B copy of every stored entry of
// main, so a suffix an eighth of main's size is scanned by a few dozen
// reads for the price of the one fold that would empty it — LSM-style
// amortisation, the same on every view, which is why it is a constant and
// not an option.
const pointFoldShare = 8

// materializeLocked folds the pending level — the log's unfolded suffix,
// log[folded:] — into the main adjacency. It is the view's one fold
// routine and runs when main is needed whole — Snapshot, a checkpoint's
// pin, a point pin whose suffix outgrew its threshold (Compact rebuilds
// main from the whole log instead). The universe is
// synced first, so every endpoint id of the suffix has a row or a column
// in it; the suffix's columns then go through sparse.FoldUnitRows — the
// kernel batch construction runs on a graph's incidence columns — which
// takes each edge's ⊗-product, groups them by cell, keeps arrival order
// within each cell, ⊕-folds each cell's run and prunes folds equal to the
// algebra's zero. Met by an empty main,
// that array IS the adjacency of the log so far (the bulk-load case: one
// fold, batch construction's cost, Exact untouched). Otherwise it
// ⊕-merges into main with main's entries on the left. When the sync grew
// the universe, that merge is also what moves main into it: main is read
// through the sync's position maps, one pass from its old storage into
// the new array. Level order is edge-key order, so only the fold's
// GROUPING changes, never its order — and the grouping changes only at
// this main-vs-suffix boundary, which is where a non-associative ⊕ can
// diverge (flagged via Exact unless the guard is on).
func (v *View[V]) materializeLocked() error {
	if v.folded == len(v.srcID) {
		return nil
	}
	if err := v.fail("fold:start"); err != nil {
		return err
	}
	start := time.Now()
	defer func() {
		v.folds++
		v.foldNanos += time.Since(start).Nanoseconds()
	}()
	rowMap, colMap, err := v.syncUniverseLocked()
	if err != nil {
		return err
	}
	err = v.mergeBacklogLocked(rowMap, colMap)
	// A suffix that folded to nothing, or failed to, merged nothing.
	if rerr := v.respanMainLocked(rowMap, colMap); err == nil {
		err = rerr
	}
	return err
}

// mergeBacklogLocked is materializeLocked past the sync: rowMap and
// colMap place main's key sets in the universe, as the sync returned
// them.
func (v *View[V]) mergeBacklogLocked(rowMap, colMap []int32) error {
	from, n := v.folded, len(v.srcID)-v.folded
	s := &v.scr
	if n > foldScratchKeep {
		s = new(batchScratch[V]) // this fold's own; garbage when it returns
	}
	s.foldRow, s.foldCol = grow(s.foldRow[:0], n)[:n], grow(s.foldCol[:0], n)[:n]
	for i := range s.foldRow {
		s.foldRow[i], s.foldCol[i] = v.srcPos[v.srcID[from+i]], v.dstPos[v.dstID[from+i]]
	}
	// A value column the log does not hold is One in every entry, here as
	// in Logs: the fold takes One ⊗ in[k], as batch construction would.
	out, in := s.onesFor(v.out, from, n, v.ops.One), s.onesFor(v.in, from, n, v.ops.One)
	// A fold that only feeds the merge below — EWiseAddInto never returns
	// or retains its src backing — may live in the scratch the next one
	// reuses. One that meets an empty main becomes main and owns its
	// storage.
	adopt := v.main.NNZ() == 0
	scr := &s.fold
	if adopt {
		scr = nil
	}
	fm, err := sparse.FoldUnitRows(v.uRows.Len(), v.uCols.Len(), s.foldRow, s.foldCol, out, in, v.ops, sparse.MxmOptions{}, scr)
	if err != nil {
		return err
	}
	v.folded = len(v.srcID)
	if fm.NNZ() == 0 {
		// Every fold pruned to the algebra's zero — nothing to merge.
		return nil
	}
	fold, err := assoc.New(v.uRows, v.uCols, fm)
	if err != nil {
		return err
	}
	if adopt {
		// Nothing was folded before: this is Definition I.4's one fold over
		// the log so far, in edge order — no ⊕ was re-associated.
		v.main, v.mainShared = fold, false
		return nil
	}
	if !v.opt.CheckAssociative {
		// The merge below groups the suffix's folded contributions against
		// already-folded state under unverified ⊕.
		v.exact = false
	}
	main, err := assoc.AddIntoMapped(v.main, fold, rowMap, colMap, v.ops, !v.mainShared, &v.mainScr)
	if err != nil {
		return err
	}
	if main != v.main {
		v.mainShared = false
	}
	v.main = main
	return nil
}

// onesFor returns log column col's entries [from, from+n) — or, for a
// column that does not exist, n entries of one from the scratch.
func (s *batchScratch[V]) onesFor(col []V, from, n int, one V) []V {
	if col != nil {
		return col[from : from+n]
	}
	if have := len(s.ones); have < n {
		s.ones = grow(s.ones, n-have)[:n]
		for i := have; i < n; i++ {
			s.ones[i] = one
		}
	}
	return s.ones[:n]
}

// Snapshot returns an immutable read view of the current state: the
// adjacency array, the edge log behind Logs, and counters. Everything
// shares storage with the live state, and subsequent appends leave
// everything reachable from the snapshot untouched (copy-on-write), so
// a snapshot costs O(1) — except when appends happened since the last
// fold, in which case the log's unfolded suffix is folded into the main
// adjacency first (amortized across those appends). It is the whole-array
// pin; a read of one cell or row takes Point, which does not fold.
func (v *View[V]) Snapshot() (Snapshot[V], error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.materializeLocked(); err != nil {
		return Snapshot[V]{}, err
	}
	v.mainShared = true
	return Snapshot[V]{
		Adjacency: v.main,
		Edges:     len(v.srcID),
		Epoch:     int(v.epoch.Load()),
		Exact:     v.exact,
		log:       v.logsLocked(),
	}, nil
}

// Snapshot is an immutable view of a View's state at one epoch.
type Snapshot[V any] struct {
	// Adjacency is A = Eoutᵀ ⊕.⊗ Ein as maintained incrementally.
	Adjacency *assoc.Array[V]
	// Edges is the number of edges in the log.
	Edges int
	// Epoch counts batches applied since the view was created.
	Epoch int
	// Exact reports whether Adjacency provably equals the one-shot
	// batch construction: true until a merge re-associates the ⊕ fold
	// without the associativity guard, and restored by Compact. (With
	// CheckAssociative set the guard is sampled, not proven — a
	// violation outside the sample can still slip through.)
	Exact bool

	log *logView[V]
}

// Logs returns the incidence log at this snapshot's epoch as the
// key-ordered arrays Eout and Ein of Definition I.4, over the vertex
// universe of that epoch. They are built on first request — O(edges) —
// and shared by every copy of the snapshot.
func (s Snapshot[V]) Logs() (eout, ein *assoc.Array[V], err error) {
	return s.log.arrays()
}

// logView is the edge log and the vertex universe of one epoch, captured
// by slice header (the log is append-only past the captured length, the
// position arrays and key Sets are never mutated, a key run has no end to
// move and a value column that comes into being later is a new slice),
// plus the incidence arrays built from them. It holds the log as the view
// does — generated keys as runs, a nil value column for a side no edge
// has weighted — and only build spells them out.
type logView[V any] struct {
	keys           keyCol
	srcID, dstID   []int32 // their length is the log's
	out, in        []V     // nil: every entry is one
	one            V
	srcPos, dstPos []int32
	uRows, uCols   *keys.Set

	once      sync.Once
	eout, ein *assoc.Array[V]
	err       error
}

// logsLocked returns the logView of the current log, which must be
// synced with the universe.
func (v *View[V]) logsLocked() *logView[V] {
	if v.logs == nil {
		n := len(v.srcID)
		v.logs = &logView[V]{
			keys:  v.keys.pinned(),
			srcID: v.srcID[:n:n], dstID: v.dstID[:n:n],
			out: slices.Clip(v.out), in: slices.Clip(v.in),
			one:    v.ops.One,
			srcPos: v.srcPos, dstPos: v.dstPos,
			uRows: v.uRows, uCols: v.uCols,
		}
	}
	return v.logs
}

func (l *logView[V]) arrays() (eout, ein *assoc.Array[V], err error) {
	l.once.Do(l.build)
	return l.eout, l.ein, l.err
}

// build assembles Eout and Ein as unit-row CSRs: rows are the edge keys
// in log order (already ascending), row i's single entry sits in the
// column its endpoint id has in this epoch's universe. This is where
// generated keys and unit weights are spelled out, once per epoch; keys
// and values the log does store are shared with it, capacity-clipped so
// that nothing grown from the arrays can write into it.
func (l *logView[V]) build() {
	n := len(l.srcID)
	rows, err := keys.FromSorted(l.keys.spell(n))
	if err != nil {
		l.err = fmt.Errorf("stream: edge log: %w", err)
		return
	}
	rowPtr := make([]int32, n+1)
	for i := range rowPtr {
		rowPtr[i] = int32(i)
	}
	side := func(cols *keys.Set, ids, pos []int32, vals []V) (*assoc.Array[V], error) {
		if vals == nil {
			vals = make([]V, n)
			for i := range vals {
				vals[i] = l.one
			}
		}
		colIdx := make([]int32, n)
		for i := range colIdx {
			colIdx[i] = pos[ids[i]]
		}
		m, err := sparse.NewCSR(n, cols.Len(), rowPtr, colIdx, vals)
		if err != nil {
			return nil, fmt.Errorf("stream: edge log: %w", err)
		}
		return assoc.New(rows, cols, m)
	}
	if l.eout, l.err = side(l.uRows, l.srcID, l.srcPos, l.out); l.err == nil {
		l.ein, l.err = side(l.uCols, l.dstID, l.dstPos, l.in)
	}
}

// Compact rebuilds the adjacency one-shot from the full incidence log —
// the escape hatch for algebras where the delta identity doesn't hold,
// and a periodic re-pack for long-lived views. The rebuilt state is the
// exact sequential Definition I.3 fold.
func (v *View[V]) Compact() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.compactLocked()
}

func (v *View[V]) compactLocked() error {
	rowMap, colMap, err := v.syncUniverseLocked()
	if err != nil {
		return err
	}
	if len(v.srcID) > 0 {
		// The rebuild spans the synced universe and replaces main whole:
		// nothing of the old main is embedded, unless the rebuild fails.
		adj, err := v.rebuildLocked()
		if err != nil {
			if rerr := v.respanMainLocked(rowMap, colMap); rerr != nil {
				return fmt.Errorf("%w (and main could not follow the universe: %v)", err, rerr)
			}
			return err
		}
		if !v.mainShared {
			v.mainScr.Recycle(v.main.Matrix())
		}
		v.main = adj
		v.mainShared = false
	}
	v.folded = len(v.srcID)
	v.appends = 0
	v.exact = true
	return nil
}

// rebuildLocked constructs the adjacency one-shot from the whole log,
// over the synced universe.
func (v *View[V]) rebuildLocked() (*assoc.Array[V], error) {
	eout, ein, err := v.logsLocked().arrays()
	if err != nil {
		return nil, err
	}
	return assoc.Correlate(eout, ein, v.ops, assoc.MulOptions{})
}

// Stats summarizes the view without exposing its arrays. Taking stats
// never folds: AdjNNZ and the vertex counts describe the folded main
// level only, with PendingNNZ edges of the log still to fold (pre-fold,
// so several may later collapse into one stored cell, and their endpoints
// join the vertex counts at the fold). On a view nobody has read,
// PendingNNZ is Edges and Folds is 0; on one that is only asked point
// reads PendingNNZ may stay non-zero, bounded by
// max(foldScratchKeep, AdjNNZ/pointFoldShare).
type Stats struct {
	Edges       int   // edges in the log
	OutVertices int   // distinct source vertices, as of the last fold
	InVertices  int   // distinct destination vertices, as of the last fold
	AdjNNZ      int   // stored entries in the materialized main level
	PendingNNZ  int   // edges in the log's unfolded suffix: Edges minus what main covers
	Appends     int   // batches since the last compact
	Epoch       int   // batches ever applied
	Exact       bool  // see Snapshot.Exact
	Folds       int   // folds run: one per whole-array read or checkpoint that found unfolded edges, or point read that found them past the threshold
	FoldNanos   int64 // time in them: universe sync + suffix fold + merge into main
}

// InternerStats reports the footprint of the out-side (source) and
// in-side (destination) key interners. The interner pointers are fixed
// at construction and the interners lock internally, so no view lock is
// taken — safe to poll from a metrics scrape at any ingest rate.
func (v *View[V]) InternerStats() (out, in keys.InternerStats) {
	return v.srcIn.Stats(), v.dstIn.Stats()
}

// Stats returns current counters.
func (v *View[V]) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return Stats{
		Edges:       len(v.srcID),
		OutVertices: v.uRows.Len(),
		InVertices:  v.uCols.Len(),
		AdjNNZ:      v.main.NNZ(),
		PendingNNZ:  len(v.srcID) - v.folded,
		Appends:     v.appends,
		Epoch:       int(v.epoch.Load()),
		Exact:       v.exact,
		Folds:       v.folds,
		FoldNanos:   v.foldNanos,
	}
}
