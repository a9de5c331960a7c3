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
// (the delta identity). A View owns a pair of append-only incidence
// arrays — the edge log — plus the current adjacency array, and applies
// each batch through the shared partial-product engine in
// internal/shard instead of rebuilding from scratch.
//
// Vertex resolution goes through per-side slab-backed key interners
// (keys.Interner): every distinct endpoint string is stored once and
// mapped to a stable dense id, and the view maintains one flat id →
// column-position array per side. The hot Append path therefore
// resolves endpoints with two array reads per edge — no map[string]int,
// no binary search, no re-sorting of string slices — and a batch that
// introduces new vertices sorts only the NEW keys (typically a handful)
// before the merge-sweep union grows the universe. The universe key
// Sets are Bound to the interners, so every downstream lookup
// (EmbedInto, merge alignment, facade queries against snapshots)
// resolves through the same hash table instead of building per-Set
// maps.
//
// Soundness hypothesis: folding a delta into already-folded state
// re-associates the per-cell ⊕ fold — ((earlier edges) ⊕ (delta))
// instead of the flat left-to-right fold over all edge keys. Because
// edge keys are required to arrive in ascending order, the fold ORDER
// is preserved and only the grouping changes, so the incremental state
// equals the one-shot construction exactly when ⊕ is associative on the
// data (the same hypothesis internal/shard checks, per the paper's
// companion work on algebraic conditions). For a non-associative ⊕ the
// view still ingests — deterministically — but may diverge from the
// batch result; Compact rebuilds from the full log and recovers it.
// Options.CheckAssociative samples the hypothesis on every append and
// fails fast instead.
//
// Reads are served from Snapshots: immutable views that share CSR
// backing with the live state (copy-on-write — an append never mutates
// storage reachable from a handed-out snapshot), so taking one is O(1)
// and snapshot readers never block ingest.
package stream

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/parallel"
	"adjarray/internal/semiring"
	"adjarray/internal/shard"
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
	// Mul tunes the per-batch partial products and Compact rebuilds.
	// Mul.Workers also drives the materialize fold: with parallelism
	// requested, the pending-backlog fold and the ⊕-merge into the main
	// adjacency run across flop-balanced row spans.
	Mul assoc.MulOptions
	// CompactEvery, when > 0, triggers an automatic Compact after that
	// many appends — bounding drift for non-associative ⊕ and re-packing
	// storage. 0 disables auto-compaction.
	CompactEvery int
	// CheckAssociative, when set, samples the delta-identity hypotheses
	// (⊕ associative, Zero a ⊕-identity) over each batch's values before
	// accepting it and fails the Append if the re-associated fold could
	// diverge (the shard.Engine guard).
	CheckAssociative bool
	// PendingBudget bounds the delta backlog: once this many pending
	// contribution entries accumulate they are folded into the main
	// adjacency. <= 0 selects max(4096, nnz(main)/4). Smaller budgets
	// fold more eagerly (cheaper snapshots, costlier appends).
	PendingBudget int
}

// View is a maintained adjacency array: an append-only incidence log
// and the current A = Eoutᵀ ⊕.⊗ Ein, updated per batch by the delta
// identity. All methods are safe for concurrent use; reads should go
// through Snapshot, which never blocks on ingest more than the O(1)
// bookkeeping under the lock (plus a pending fold when appends happened
// since the last read).
//
// The adjacency is held in two levels, LSM-style: `main`, the
// materialized array snapshots share, and a pending delta backlog —
// each appended edge's contribution out⊗in recorded as an integer cell
// coordinate plus value, in arrival order. An append therefore costs
// O(batch) — not O(nnz(main)) — and the backlog is folded into main (one
// sort + one ⊕-merge) only when it outgrows Options.PendingBudget or a
// snapshot needs the materialized state. Level order is fold order:
// main holds the earlier edge keys, so a fold re-associates but never
// reorders contributions.
//
// The hot Append path is allocation-lean by construction: batch
// vertices resolve through the per-side interners to integer positions
// (two flat array reads per edge), the log grows by single-entry CSR
// rows in place, and the pending backlog is two flat slices. A batch
// that introduces vertices unseen by the log sorts only the new keys
// and grows the universe by one merge sweep — cold ingest from an empty
// view stays amortized even though nearly every early batch lands
// there.
type View[V any] struct {
	mu  sync.Mutex
	eng shard.Engine[V]
	opt Options

	eout, ein *assoc.Array[V] // append-only incidence log (reified rows)

	// The fast path stages its unit rows here instead of growing the
	// log arrays per batch: reifying a batch into eout/ein costs five
	// small wrapper allocations (Set, two CSRs, two Arrays) every
	// append, while staging is five slice appends into view-owned
	// buffers. flushLogLocked reifies the whole run in one shot at the
	// next boundary that needs the arrays (Snapshot, Compact, a
	// universe-growing batch) — so between snapshots the hot path
	// allocates only on amortized slice growth. Column positions stay
	// valid while staged because only the slow path changes the
	// universe, and it flushes first. lastKey tracks the newest edge
	// key across reified AND staged rows (v.edges > 0 marks it valid).
	stageKeys           []string
	stageOut, stageIn   []int
	stageOutV, stageInV []V
	lastKey             string

	// srcIn/dstIn intern endpoint strings to stable dense ids; srcPos/
	// dstPos map each id to its column position in the current universe
	// (-1: interned but not, or no longer provisionally, in the
	// universe). The position arrays are REPLACED, never mutated, when
	// the universe grows, so the InternIndex bindings handed to older
	// Sets keep describing the universe those Sets froze.
	srcIn, dstIn *keys.Interner
	//adjlint:cow
	srcPos, dstPos []int32

	main       *assoc.Array[V] // materialized adjacency (snapshots share it); always spans the log's vertex universe
	pendCell   []int64         // pending contribution cells, row*C+col in universe coords, arrival order
	pendVal    []V             // pending contribution values, parallel to pendCell
	mainShared bool            // a Snapshot holds main's storage
	mainScr    sparse.MergeScratch[V]

	edges    int // rows in the log
	appends  int // batches since the last compact
	epoch    int // total batches ever applied
	exact    bool
	autoSeq  int    // generator for auto-assigned edge keys
	autoBase string // prefix for auto keys: "" selects "e"; a Store gives each of several shards its own

	scr batchScratch[V] // per-append buffers, reused under mu

	// failpoint, when set (tests only), is consulted at named sites
	// inside the append paths; a non-nil return aborts the append there.
	// It exists to prove the rollback below restores the view exactly.
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
// committed (counters bumped, rows in the log) by follow-on
// maintenance — the backlog fold or an auto-compact. Rolling the batch
// back there would be wrong (the maintenance may have merged in place),
// so the append paths let it through without restoring.
type committedError struct{ err error }

func (e *committedError) Error() string { return e.err.Error() }
func (e *committedError) Unwrap() error { return e.err }

// appendRollback is the state an in-flight append may change, captured
// as slice headers and counters. Arrays are copy-on-write throughout
// the append paths (the backlog rebase included), so restoring the
// headers restores the view bit for bit: bytes past a restored length
// are garbage a future append overwrites before reading.
type appendRollback[V any] struct {
	eout, ein, main *assoc.Array[V]
	srcPos, dstPos  []int32
	pendCell        []int64
	pendVal         []V
	nStage          int
	mainShared      bool
	edges           int
	appends         int
	epoch           int
	exact           bool
	lastKey         string
}

func (v *View[V]) captureLocked() appendRollback[V] {
	return appendRollback[V]{
		eout: v.eout, ein: v.ein, main: v.main,
		srcPos: v.srcPos, dstPos: v.dstPos,
		pendCell: v.pendCell, pendVal: v.pendVal,
		nStage:     len(v.stageKeys),
		mainShared: v.mainShared,
		edges:      v.edges, appends: v.appends, epoch: v.epoch,
		exact: v.exact, lastKey: v.lastKey,
	}
}

func (v *View[V]) restoreLocked(rb appendRollback[V]) {
	v.eout, v.ein, v.main = rb.eout, rb.ein, rb.main
	v.srcPos, v.dstPos = rb.srcPos, rb.dstPos
	v.pendCell, v.pendVal = rb.pendCell, rb.pendVal
	v.stageKeys = v.stageKeys[:rb.nStage]
	v.stageOut, v.stageIn = v.stageOut[:rb.nStage], v.stageIn[:rb.nStage]
	v.stageOutV, v.stageInV = v.stageOutV[:rb.nStage], v.stageInV[:rb.nStage]
	v.mainShared = rb.mainShared
	v.edges, v.appends, v.epoch = rb.edges, rb.appends, rb.epoch
	v.exact, v.lastKey = rb.exact, rb.lastKey
	// Interner ids assigned for the failed batch stay behind as
	// orphans (id → position -1); growSideLocked is built to absorb
	// them on the next universe growth.
}

// batchScratch holds the fast path's per-append buffers. Append runs
// under the view lock, so one set per view suffices; in steady state the
// ingest path stops allocating.
type batchScratch[V any] struct {
	rowKeys        []string
	srcs, dsts     []string
	outs, ins      []V
	srcIDs, dstIDs []int32 // interner ids, parallel to srcs/dsts
	srcID          []int   // column positions, parallel to srcs
	dstID          []int
	newIDs         []int32  // slow path: ids of keys new to one universe
	newKeys        []string // slow path: their key strings, then sorted
	enc            []int64  // materialize: (cell, seq) encoding
	foldPtr        []int    // materialize: fold CSR row pointer
	foldCol        []int
	foldVal        []V
	tmpCol         []int   // parallel materialize: span-local fold staging
	tmpVal         []V     //
	wprefix        []int64 // parallel materialize: per-row weight prefix
	spanOf         []int   // parallel materialize: per-entry span index
}

// NewView creates an empty view for the given operator pair.
func NewView[V any](ops semiring.Ops[V], opt Options) *View[V] {
	// Each log line gets its own empty array: reuse-append chains grow
	// their receiver's backing, so eout and ein must never share one.
	return &View[V]{
		eng:   shard.Engine[V]{Ops: ops, Mul: opt.Mul},
		opt:   opt,
		eout:  assoc.FromTriples[V](nil, nil),
		ein:   assoc.FromTriples[V](nil, nil),
		main:  assoc.FromTriples[V](nil, nil),
		srcIn: keys.NewInterner(),
		dstIn: keys.NewInterner(),
		exact: true,
	}
}

// FromIncidence bootstraps a view from an existing batch-built pair of
// incidence arrays: the initial adjacency is constructed one-shot (the
// exact sequential fold), and subsequent Appends apply deltas on top.
func FromIncidence[V any](eout, ein *assoc.Array[V], ops semiring.Ops[V], opt Options) (*View[V], error) {
	if !eout.RowKeys().Equal(ein.RowKeys()) {
		return nil, fmt.Errorf("stream: incidence arrays disagree on edge keys")
	}
	v := NewView(ops, opt)
	if eout.RowKeys().Len() == 0 {
		return v, nil
	}
	adj, err := v.eng.Partial(eout, ein)
	if err != nil {
		return nil, err
	}
	v.eout, v.ein, v.main = eout, ein, adj
	v.edges = eout.RowKeys().Len()
	v.lastKey = eout.RowKeys().Key(v.edges - 1)
	v.rebindLocked()
	return v, nil
}

// flushLogLocked reifies the staged fast-path rows into the log arrays
// — one AppendIncidencePair for the whole run since the last flush.
// Boundaries that read or reshape the log (Snapshot, Compact, the
// universe-growing append paths) flush first; between them the arrays'
// ROW dimension lags the staged run while the column universe stays
// exact (only flushed paths may grow it).
func (v *View[V]) flushLogLocked() error {
	if len(v.stageKeys) == 0 {
		return nil
	}
	eout, ein, err := assoc.AppendIncidencePair(v.eout, v.ein, v.stageKeys, v.stageOut, v.stageIn, v.stageOutV, v.stageInV)
	if err != nil {
		return err
	}
	v.eout, v.ein = eout, ein
	v.stageKeys = v.stageKeys[:0]
	v.stageOut, v.stageIn = v.stageOut[:0], v.stageIn[:0]
	v.stageOutV, v.stageInV = v.stageOutV[:0], v.stageInV[:0]
	return nil
}

// rebindLocked resynchronizes the interners with the log's column
// universes from scratch — the recovery path for batches that grow the
// universe outside the interner-aware route (AppendArrays, the packed-
// coordinate overflow fallback) and the FromIncidence bootstrap. It
// interns every universe key (existing ids are reused; ids never
// change) and rebuilds the id→position arrays, then binds the universe
// Sets so their Index resolves through the interner.
func (v *View[V]) rebindLocked() {
	v.srcPos = rebindSide(v.srcIn, v.eout.ColKeys())
	v.dstPos = rebindSide(v.dstIn, v.ein.ColKeys())
}

func rebindSide(in *keys.Interner, set *keys.Set) []int32 {
	n := set.Len()
	ids := make([]int32, n)
	for i := 0; i < n; i++ {
		ids[i] = in.Intern(set.Key(i))
	}
	pos := make([]int32, in.Len())
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range ids {
		pos[id] = int32(i)
	}
	set.Bind(&keys.InternIndex{In: in, Pos: pos})
	return pos
}

// Append ingests one edge batch. Edge keys must be strictly increasing
// within the batch and sort after every key already in the log (the
// append-only discipline that keeps fold order equal to arrival order);
// an empty Key is auto-assigned from the view's monotone generator —
// don't mix auto-assigned and explicit keys. Duplicate keys are
// rejected. The caller's slice is never written.
func (v *View[V]) Append(edges []Edge[V]) error {
	if len(edges) == 0 {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	ops := v.eng.Ops
	s := &v.scr
	s.rowKeys = s.rowKeys[:0]
	s.srcs, s.dsts = s.srcs[:0], s.dsts[:0]
	s.outs, s.ins = s.outs[:0], s.ins[:0]
	// The generator state moves only if the batch commits.
	base, seq, seeded := v.autoBase, v.autoSeq, false
	prev := ""
	for i, e := range edges {
		key := e.Key
		if key == "" {
			if base == "" {
				base = "e"
			}
			key = fmt.Sprintf("%s%012d", base, seq+i)
			if !seeded && v.edges > 0 && key <= v.lastKey {
				// The next generated key would not sort after the log
				// (a bootstrap or a recovered log with other keys):
				// reseed the generator past the log's last key.
				base, seq = v.lastKey+"+", -i
				key = fmt.Sprintf("%s%012d", base, 0)
			}
			seeded = true
		}
		if i > 0 && key <= prev {
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
		s.rowKeys = append(s.rowKeys, key)
		s.srcs = append(s.srcs, e.Src)
		s.dsts = append(s.dsts, e.Dst)
		s.outs = append(s.outs, ov)
		s.ins = append(s.ins, iv)
	}
	// Cross-batch key discipline, validated before anything is staged
	// or committed: the batch's first key must sort after everything in
	// the log, reified or staged.
	if v.edges > 0 && s.rowKeys[0] <= v.lastKey {
		return fmt.Errorf("stream: batch key %q does not sort after the log's last key %q", s.rowKeys[0], v.lastKey)
	}
	before := v.epoch
	err := v.appendResolvedLocked()
	if v.epoch != before {
		// Committed, even when follow-on maintenance then failed.
		v.autoBase, v.autoSeq = base, seq+len(edges)
	}
	return err
}

// appendResolvedLocked applies the batch staged in v.scr: the fused fast
// path when every batch vertex resolves through the interners to a
// position in the current universe, the general grow route otherwise.
func (v *View[V]) appendResolvedLocked() error {
	s := &v.scr
	n := len(s.rowKeys)
	if cap(s.srcIDs) < n {
		s.srcIDs = make([]int32, 0, 2*n)
		s.dstIDs = make([]int32, 0, 2*n)
	}
	s.srcIDs, s.dstIDs = s.srcIDs[:n], s.dstIDs[:n]
	s.srcID = s.srcID[:0]
	s.dstID = s.dstID[:0]
	// One read-lock acquisition per side resolves the whole batch to
	// interner ids; ids then map to column positions with a flat array
	// read. No maps, no binary searches, no sorting.
	resolved := v.srcIn.LookupBatch(s.srcs, s.srcIDs) && v.dstIn.LookupBatch(s.dsts, s.dstIDs)
	if resolved {
		for i := 0; i < n; i++ {
			sid, did := s.srcIDs[i], s.dstIDs[i]
			if int(sid) >= len(v.srcPos) || v.srcPos[sid] < 0 ||
				int(did) >= len(v.dstPos) || v.dstPos[did] < 0 {
				resolved = false
				break
			}
			s.srcID = append(s.srcID, int(v.srcPos[sid]))
			s.dstID = append(s.dstID, int(v.dstPos[did]))
		}
	}
	C := int64(v.ein.ColKeys().Len())
	if resolved && (C == 0 || int64(v.eout.ColKeys().Len()) <= math.MaxInt64/C) {
		rb := v.captureLocked()
		if err := v.appendFastLocked(); err != nil {
			return v.rollbackLocked(rb, err)
		}
		return nil
	}
	// Reify the staged run before capturing: the flush commits PRIOR
	// batches (already accepted), not this one, so it must survive a
	// rollback of this batch.
	if err := v.flushLogLocked(); err != nil {
		return err
	}
	rb := v.captureLocked()
	if err := v.appendSlowLocked(); err != nil {
		return v.rollbackLocked(rb, err)
	}
	return nil
}

// rollbackLocked restores the captured state for a batch that failed
// before its commit point — unless err is a committedError, in which
// case the batch stays applied and only the maintenance error
// propagates.
func (v *View[V]) rollbackLocked(rb appendRollback[V], err error) error {
	if ce, ok := err.(*committedError); ok {
		return ce.err
	}
	v.restoreLocked(rb)
	return err
}

// appendSlowLocked handles a staged batch that introduces vertices
// unseen by the log. The batch endpoints are interned (new keys land in
// the slab and get fresh ids); only the keys NEW to each universe are
// sorted — a handful, not the whole batch — and the column universes
// grow by one merge-sweep union (GrowCols, no hashing, growth maps for
// free). The id→position arrays are rebuilt copy-on-write, the pending
// backlog's integer coordinates are rebased into the grown universe —
// O(backlog), no fold — and the batch's contributions queue raw exactly
// like the fast path's.
func (v *View[V]) appendSlowLocked() error {
	s := &v.scr
	n := len(s.rowKeys)
	if v.opt.CheckAssociative {
		if err := v.checkBatchAssociativeLocked(); err != nil {
			return err
		}
	}
	// The staged run was reified by the caller (appendResolvedLocked)
	// before the rollback capture: positions staged earlier refer to
	// the universe this batch is about to grow.
	v.srcIn.InternBatch(s.srcs, s.srcIDs)
	v.dstIn.InternBatch(s.dsts, s.dstIDs)
	srcPos, err := v.growSideLocked(v.srcIn, v.srcPos, s.srcIDs, true)
	if err != nil {
		return err
	}
	if err := v.fail("slow:grew-src"); err != nil {
		return err
	}
	dstPos, err := v.growSideLocked(v.dstIn, v.dstPos, s.dstIDs, false)
	if err != nil {
		return err
	}
	if err := v.fail("slow:grew-dst"); err != nil {
		return err
	}
	newC := int64(v.ein.ColKeys().Len())
	if newC > 0 && int64(v.eout.ColKeys().Len()) > math.MaxInt64/newC {
		// Cell coordinates no longer pack into an int64: fall back to
		// the array route (flush + direct merge), which never packs.
		// The universes have already grown consistently, so only the
		// log rows and the adjacency merge remain.
		dout, din, err := buildDelta(s.rowKeys, s.srcs, s.dsts, s.outs, s.ins)
		if err != nil {
			return err
		}
		return v.appendArraysLocked(dout, din, nil)
	}
	// Per-edge positions in the grown universes.
	s.srcID, s.dstID = s.srcID[:0], s.dstID[:0]
	for i := 0; i < n; i++ {
		s.srcID = append(s.srcID, int(srcPos[s.srcIDs[i]]))
		s.dstID = append(s.dstID, int(dstPos[s.dstIDs[i]]))
	}
	eout, ein, err := assoc.AppendIncidencePair(v.eout, v.ein, s.rowKeys, s.srcID, s.dstID, s.outs, s.ins)
	if err != nil {
		return err
	}
	v.eout, v.ein = eout, ein
	if err := v.fail("slow:appended-rows"); err != nil {
		return err
	}
	return v.commitBatchLocked(newC)
}

// growSideLocked grows one side's column universe to cover the batch
// ids in batchIDs, committing the grown array, the rebased backlog
// coordinates (the src side owns the row coordinate, the dst side the
// column), and the new id→position array. It returns the committed
// position array. When the batch introduces no new keys the existing
// position array is returned untouched.
func (v *View[V]) growSideLocked(in *keys.Interner, pos []int32, batchIDs []int32, isSrc bool) ([]int32, error) {
	s := &v.scr
	// Collect the distinct ids that are not (or not yet) in the
	// universe, in first-appearance order, using a grown copy of the
	// position array as the visited set (-2 marks "queued").
	total := in.Len()
	newPos := make([]int32, total)
	copy(newPos, pos)
	for i := len(pos); i < total; i++ {
		newPos[i] = -1
	}
	s.newIDs = s.newIDs[:0]
	for _, id := range batchIDs {
		if newPos[id] == -1 {
			newPos[id] = -2
			s.newIDs = append(s.newIDs, id)
		}
	}
	side := v.eout
	if !isSrc {
		side = v.ein
	}
	if len(s.newIDs) == 0 {
		// No growth on this side: keep the existing array and binding.
		if len(newPos) == len(pos) {
			return pos, nil
		}
		// Interner grew (orphans from an earlier failed batch) but this
		// universe did not; publish the extended map so ids stay in
		// bounds.
		side.ColKeys().Bind(&keys.InternIndex{In: in, Pos: newPos})
		if isSrc {
			v.srcPos = newPos
		} else {
			v.dstPos = newPos
		}
		return newPos, nil
	}
	// Sort ONLY the new keys — the interner already deduplicated them.
	s.newKeys = s.newKeys[:0]
	for _, id := range s.newIDs {
		s.newKeys = append(s.newKeys, in.Key(id))
	}
	order := make([]int, len(s.newIDs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(s.newKeys[a], s.newKeys[b]) })
	sorted := make([]string, len(order))
	for j, oi := range order {
		sorted[j] = s.newKeys[oi]
	}
	extra, err := keys.FromSorted(sorted)
	if err != nil {
		return nil, fmt.Errorf("stream: batch keys: %w", err)
	}
	grown, oldPos, extraPos, err := side.GrowCols(extra)
	if err != nil {
		return nil, err
	}
	// Rebuild this side's id→position map copy-on-write: existing ids
	// remap through oldPos; new ids take their union positions.
	for id, p := range newPos {
		switch {
		case p >= 0 && oldPos != nil:
			newPos[id] = int32(oldPos[p])
		case p == -2:
			newPos[id] = -1 // filled from the sorted order below
		}
	}
	for j, oi := range order {
		up := j
		if extraPos != nil {
			up = extraPos[j]
		}
		newPos[s.newIDs[oi]] = int32(up)
	}
	// Rebase the backlog into the grown universe. The source side owns
	// the row coordinate, the destination side the column; the column
	// stride changes only when the dst side grows, and the caller grows
	// dst AFTER src, so rebasing per side in call order stays exact.
	// The rebase is copy-on-write — a later failure in this append must
	// be able to restore the pre-batch backlog by slice header alone.
	oldC := int64(v.ein.ColKeys().Len())
	if len(v.pendCell) > 0 && oldPos != nil {
		rebased := make([]int64, len(v.pendCell))
		if isSrc {
			for i, cell := range v.pendCell {
				r, c := cell/oldC, cell%oldC
				rebased[i] = int64(oldPos[r])*oldC + c
			}
		} else {
			newC := int64(grown.ColKeys().Len())
			for i, cell := range v.pendCell {
				r, c := cell/oldC, cell%oldC
				rebased[i] = r*newC + int64(oldPos[c])
			}
		}
		v.pendCell = rebased
	} else if !isSrc && len(v.pendCell) > 0 && oldC != int64(grown.ColKeys().Len()) {
		newC := int64(grown.ColKeys().Len())
		rebased := make([]int64, len(v.pendCell))
		for i, cell := range v.pendCell {
			r, c := cell/oldC, cell%oldC
			rebased[i] = r*newC + c
		}
		v.pendCell = rebased
	}
	grown.ColKeys().Bind(&keys.InternIndex{In: in, Pos: newPos})
	if isSrc {
		v.eout = grown
		v.srcPos = newPos
	} else {
		v.ein = grown
		v.dstPos = newPos
	}
	return newPos, nil
}

// appendFastLocked is the steady-state ingest path: all batch vertices
// resolved to positions in the (unchanged) universe, so the batch's
// unit rows are STAGED (five slice appends; reified in bulk at the next
// flush boundary) and its contributions queue as raw (cell, value)
// pairs — no delta arrays, no per-batch product, no key-set work, no
// wrapper allocations.
func (v *View[V]) appendFastLocked() error {
	s := &v.scr

	if v.opt.CheckAssociative {
		if err := v.checkBatchAssociativeLocked(); err != nil {
			return err
		}
	}
	v.stageKeys = append(v.stageKeys, s.rowKeys...)
	v.stageOut = append(v.stageOut, s.srcID...)
	v.stageIn = append(v.stageIn, s.dstID...)
	v.stageOutV = append(v.stageOutV, s.outs...)
	v.stageInV = append(v.stageInV, s.ins...)
	if err := v.fail("fast:staged"); err != nil {
		return err
	}
	return v.commitBatchLocked(int64(v.ein.ColKeys().Len()))
}

// commitBatchLocked is the shared tail of both append paths: it queues
// the staged batch's contributions as (cell, value) pairs against the
// committed universe (stride C), bumps the counters, and applies the
// budget/compaction policies. The caller must already have grown the
// log and assigned v.eout/v.ein.
func (v *View[V]) commitBatchLocked(C int64) error {
	s := &v.scr
	ops := v.eng.Ops
	if need := len(v.pendCell) + len(s.srcID); cap(v.pendCell) < need {
		// Grow by doubling (the built-in append backs off to ~1.25x for
		// large slices): the backlog fills toward the fold budget and
		// resets keeping its capacity, so growth stops after the first
		// fold cycle. Never pre-reserve the budget itself — it is a CAP,
		// and callers legitimately set it huge to defer folding.
		c := 2 * cap(v.pendCell)
		if c < need {
			c = need
		}
		pc := make([]int64, len(v.pendCell), c)
		pv := make([]V, len(v.pendVal), c)
		copy(pc, v.pendCell)
		copy(pv, v.pendVal)
		v.pendCell, v.pendVal = pc, pv
	}
	for i := range s.srcID {
		v.pendCell = append(v.pendCell, int64(s.srcID[i])*C+int64(s.dstID[i]))
		v.pendVal = append(v.pendVal, ops.Mul(s.outs[i], s.ins[i]))
	}
	v.edges += len(s.rowKeys)
	v.lastKey = s.rowKeys[len(s.rowKeys)-1]
	v.appends++
	v.epoch++
	if err := v.fail("commit:counted"); err != nil {
		return err
	}
	if len(v.pendVal) >= v.pendingBudget() {
		if err := v.materializeLocked(); err != nil {
			return &committedError{err}
		}
	}
	if v.opt.CompactEvery > 0 && v.appends >= v.opt.CompactEvery {
		if err := v.compactLocked(); err != nil {
			return &committedError{err}
		}
	}
	return nil
}

// checkBatchAssociativeLocked samples the associativity guard over the
// staged batch's values and their ⊗-products — the values the deferred
// fold will actually combine.
func (v *View[V]) checkBatchAssociativeLocked() error {
	s := &v.scr
	ops := v.eng.Ops
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
	if err := v.eng.CheckAssociativeValues(sample); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// buildDelta constructs a batch's delta incidence arrays in one
// map-free pass. Because an incidence row holds exactly one entry per
// side (Definition I.4), each side is a unit-diagonal-shaped CSR whose
// column indices come from one argsort of the batch's vertex keys; no
// hash maps are built.
//
// The returned arrays retain the callers' slices (rowKeys, outs, ins)
// — the view passes its per-append scratch here, so they must not
// outlive the append that built them. The log append copies everything
// it keeps.
func buildDelta[V any](rowKeys, srcs, dsts []string, outs, ins []V) (dout, din *assoc.Array[V], err error) {
	n := len(rowKeys)
	rows, err := keys.FromSorted(rowKeys)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: batch keys: %w", err)
	}
	srcSet, si := argsortUnique(srcs)
	dstSet, di := argsortUnique(dsts)
	rowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
	}
	outM, err := sparse.NewCSR(n, srcSet.Len(), rowPtr, si, outs)
	if err != nil {
		return nil, nil, err
	}
	inM, err := sparse.NewCSR(n, dstSet.Len(), append([]int(nil), rowPtr...), di, ins)
	if err != nil {
		return nil, nil, err
	}
	dout, err = assoc.New(rows, srcSet, outM)
	if err != nil {
		return nil, nil, err
	}
	din, err = assoc.New(rows, dstSet, inM)
	if err != nil {
		return nil, nil, err
	}
	return dout, din, nil
}

// argsortUnique returns the sorted unique key Set of ks plus each
// element's position in it — one argsort instead of a set sort followed
// by per-element binary searches.
func argsortUnique(ks []string) (*keys.Set, []int) {
	idx := make([]int, len(ks))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return strings.Compare(ks[a], ks[b]) })
	uniq := make([]string, 0, len(ks))
	pos := make([]int, len(ks))
	for _, e := range idx {
		if len(uniq) == 0 || uniq[len(uniq)-1] != ks[e] {
			uniq = append(uniq, ks[e])
		}
		pos[e] = len(uniq) - 1
	}
	set, err := keys.FromSorted(uniq)
	if err != nil {
		panic("stream: argsortUnique produced unsorted keys: " + err.Error())
	}
	return set, pos
}

// AppendArrays ingests one batch given directly as a pair of delta
// incidence arrays sharing their edge-key row set — the entry point for
// ingest pipelines that already build arrays (internal/core's
// accumulator, replayed batch files). The same key discipline as Append
// applies.
func (v *View[V]) AppendArrays(dout, din *assoc.Array[V]) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.appendArraysLocked(dout, din, nil)
}

// appendArraysLocked applies one delta batch on the general array route:
// the batch's partial product (computed through the shared shard engine
// when not supplied) is ⊕-merged into the main adjacency directly. This
// path can grow the vertex universe outside the interner-aware route,
// so the pending backlog — encoded in the old universe's coordinates —
// is folded first, and the interners are resynchronized after.
func (v *View[V]) appendArraysLocked(dout, din, partial *assoc.Array[V]) error {
	if !dout.RowKeys().Equal(din.RowKeys()) {
		return fmt.Errorf("stream: delta incidence arrays disagree on edge keys")
	}
	if dout.RowKeys().Len() == 0 {
		return nil
	}
	if partial == nil {
		var err error
		partial, err = v.eng.Partial(dout, din)
		if err != nil {
			return err
		}
	}
	if v.opt.CheckAssociative {
		if err := v.eng.CheckAssociative(dout, din, partial); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	// Reify staged rows and fold the backlog under the universe their
	// coordinates refer to, before the log append below can grow it.
	if err := v.flushLogLocked(); err != nil {
		return err
	}
	if err := v.materializeLocked(); err != nil {
		return err
	}
	// Grow the log next: AppendRows validates the key discipline, and
	// failing before the merge keeps log and adjacency consistent.
	oldSrcSet, oldDstSet := v.eout.ColKeys(), v.ein.ColKeys()
	eout, err := v.eout.AppendRows(dout, true)
	if err != nil {
		return err
	}
	ein, err := v.ein.AppendRows(din, true)
	if err != nil {
		return err
	}
	v.eout, v.ein = eout, ein
	// Resynchronize the interners only when the universe actually grew
	// (AppendRows returns the SAME column Set pointers otherwise, and a
	// same-pointer Set means every cached id→position entry is still
	// exact) — the steady-state array route stays O(batch), not
	// O(universe).
	if eout.ColKeys() != oldSrcSet || ein.ColKeys() != oldDstSet {
		v.rebindLocked()
	}
	uRows, uCols := eout.ColKeys(), ein.ColKeys()
	pe, err := partial.EmbedInto(uRows, uCols)
	if err != nil {
		return err
	}
	if err := v.embedMainLocked(uRows, uCols); err != nil {
		return err
	}
	if v.main.NNZ() > 0 && partial.NNZ() > 0 && !v.opt.CheckAssociative {
		// The merge groups this batch's folded contribution against
		// already-folded state under unverified ⊕.
		v.exact = false
	}
	main, err := v.eng.MergeScratch(v.main, pe, !v.mainShared, &v.mainScr)
	if err != nil {
		return err
	}
	if main != v.main {
		v.mainShared = false
	}
	v.main = main
	v.edges += dout.RowKeys().Len()
	v.lastKey = dout.RowKeys().Key(dout.RowKeys().Len() - 1)
	v.appends++
	v.epoch++
	if v.opt.CompactEvery > 0 && v.appends >= v.opt.CompactEvery {
		return v.compactLocked()
	}
	return nil
}

func (v *View[V]) pendingBudget() int {
	if v.opt.PendingBudget > 0 {
		return v.opt.PendingBudget
	}
	b := v.main.NNZ() / 4
	if b < 4096 {
		b = 4096
	}
	return b
}

// embedMainLocked grows main's key sets to the universe. EmbedInto
// shares main's storage (no value copy), so mainShared must stay as it
// is.
func (v *View[V]) embedMainLocked(uRows, uCols *keys.Set) error {
	if v.main.RowKeys().Equal(uRows) && v.main.ColKeys().Equal(uCols) {
		return nil
	}
	main, err := v.main.EmbedInto(uRows, uCols)
	if err != nil {
		return err
	}
	v.main = main
	return nil
}

// minParallelFold is the backlog size below which the materialize fold
// always runs serially: span scheduling costs a few microseconds, which
// a small sort+fold undercuts on one core.
const minParallelFold = 4096

// materializeLocked folds the pending backlog into the main adjacency:
// the contributions are grouped by cell while preserving arrival order
// within each cell, each cell's run is ⊕-folded (pruning folds equal to
// the algebra's zero, the kernels' contract), and the resulting delta
// array ⊕-merges into main with main's entries on the left. Level order
// is edge-key order, so only the fold's GROUPING changes, never its
// order — and the grouping changes only at this main-vs-backlog
// boundary, which is where a non-associative ⊕ can diverge (flagged via
// Exact unless the guard is on).
//
// With Options.Mul requesting parallelism and a backlog worth
// splitting, the fold runs across row spans balanced by pending-entry
// count (foldPendingParallel) and the subsequent ⊕-merge into main runs
// across merge-cost-balanced spans (the engine routes it through
// sparse.EWiseAddIntoParallel) — both bit-identical to the serial path.
func (v *View[V]) materializeLocked() error {
	n := len(v.pendVal)
	if n == 0 {
		return nil
	}
	s := &v.scr
	uRows, uCols := v.eout.ColKeys(), v.ein.ColKeys()
	R, C := uRows.Len(), uCols.Len()
	w := 1
	if mw := v.opt.Mul.Workers; (mw > 1 || mw < 0) && n >= minParallelFold {
		w = parallel.Workers(mw, R)
	}
	if w > 1 {
		v.foldPendingParallel(R, C, w)
	} else {
		v.foldPendingSerial(R, C)
	}
	v.pendCell = v.pendCell[:0]
	v.pendVal = v.pendVal[:0]
	if len(s.foldCol) == 0 {
		// Every fold pruned to the algebra's zero — nothing to merge.
		return nil
	}
	// The fold array only feeds the merge below — EWiseAddInto never
	// returns or retains its src backing — so handing it the scratch
	// slices directly is safe; the next materialize reuses them.
	fm, err := sparse.NewCSR(R, C, s.foldPtr[:R+1], s.foldCol, s.foldVal)
	if err != nil {
		return err
	}
	fold, err := assoc.New(uRows, uCols, fm)
	if err != nil {
		return err
	}
	if err := v.embedMainLocked(uRows, uCols); err != nil {
		return err
	}
	if v.main.NNZ() > 0 && !v.opt.CheckAssociative {
		// The merge below groups the backlog's folded contributions
		// against already-folded state under unverified ⊕.
		v.exact = false
	}
	main, err := v.eng.MergeScratch(v.main, fold, !v.mainShared, &v.mainScr)
	if err != nil {
		return err
	}
	if main != v.main {
		v.mainShared = false
	}
	v.main = main
	return nil
}

// foldPendingSerial is the single-threaded backlog fold: one integer
// sort groups the contributions by cell while preserving arrival order
// within each cell (the (cell, seq) packed encoding, or a stable
// argsort when the coordinate space is too large to pack), then a
// single pass ⊕-folds each cell's run into the fold CSR scratch.
func (v *View[V]) foldPendingSerial(R, C int) {
	s := &v.scr
	n := len(v.pendVal)
	maxCell := int64(R)*int64(C) - 1
	// Strict: cell*n + i with i < n must not wrap for cell = maxCell.
	packed := maxCell < math.MaxInt64/int64(n)
	s.enc = s.enc[:0]
	if cap(s.enc) < n {
		s.enc = make([]int64, 0, 2*n)
	}
	if packed {
		for i, cell := range v.pendCell {
			s.enc = append(s.enc, cell*int64(n)+int64(i))
		}
		slices.Sort(s.enc)
	} else {
		for i := range v.pendCell {
			s.enc = append(s.enc, int64(i))
		}
		slices.SortStableFunc(s.enc, func(a, b int64) int {
			ca, cb := v.pendCell[a], v.pendCell[b]
			switch {
			case ca < cb:
				return -1
			case ca > cb:
				return 1
			}
			return 0
		})
	}
	if cap(s.foldPtr) < R+1 {
		s.foldPtr = make([]int, R+1)
	}
	foldPtr := s.foldPtr[:R+1]
	foldCol := s.foldCol[:0]
	foldVal := s.foldVal[:0]
	ops := v.eng.Ops
	fillRow := 0
	emit := func(cell int64, acc V) {
		if ops.IsZero(acc) {
			return
		}
		r := int(cell / int64(C))
		for fillRow < r {
			foldPtr[fillRow+1] = len(foldCol)
			fillRow++
		}
		foldCol = append(foldCol, int(cell%int64(C)))
		foldVal = append(foldVal, acc)
	}
	foldPtr[0] = 0
	var acc V
	curCell := int64(-1)
	for _, e := range s.enc {
		var cell int64
		var i int
		if packed {
			cell = e / int64(n)
			i = int(e % int64(n))
		} else {
			i = int(e)
			cell = v.pendCell[i]
		}
		val := v.pendVal[i]
		if cell != curCell {
			if curCell >= 0 {
				emit(curCell, acc)
			}
			curCell = cell
			acc = val
		} else {
			acc = ops.Add(acc, val)
		}
	}
	if curCell >= 0 {
		emit(curCell, acc)
	}
	for fillRow < R {
		foldPtr[fillRow+1] = len(foldCol)
		fillRow++
	}
	s.foldCol, s.foldVal = foldCol, foldVal
}

// foldPendingParallel is the span-parallel backlog fold: rows are
// partitioned into spans balanced by pending-entry count (the fold's
// work unit), entries are scattered to their owning span in arrival
// order, each span independently sorts and ⊕-folds its rows into a
// staging area, and the per-span results are stitched into the fold CSR
// with one parallel copy. Per-row output is bit-identical to the serial
// fold: cells sort ascending within each span, spans cover ascending
// disjoint row ranges, and arrival order within a cell is preserved by
// the same (cell, seq) encoding.
func (v *View[V]) foldPendingParallel(R, C, w int) {
	s := &v.scr
	n := len(v.pendVal)
	ops := v.eng.Ops

	// Per-row pending counts → weight prefix → balanced spans.
	if cap(s.wprefix) < R+1 {
		s.wprefix = make([]int64, R+1)
	}
	wprefix := s.wprefix[:R+1]
	for i := range wprefix {
		wprefix[i] = 0
	}
	for _, cell := range v.pendCell {
		wprefix[cell/int64(C)+1]++
	}
	for i := 0; i < R; i++ {
		wprefix[i+1] += wprefix[i]
	}
	bounds := parallel.BalancedSpans(wprefix, w)

	// Scatter entries to spans, preserving arrival order within a span.
	maxCell := int64(R)*int64(C) - 1
	packed := maxCell < math.MaxInt64/int64(n)
	if cap(s.enc) < n {
		s.enc = make([]int64, 0, 2*n)
	}
	enc := s.enc[:n]
	if cap(s.spanOf) < w+1 {
		s.spanOf = make([]int, w+1)
	}
	offs := s.spanOf[:w+1]
	for i := range offs {
		offs[i] = 0
	}
	spanFor := func(r int) int {
		// bounds is short (≤ workers); binary search it.
		return sort.Search(len(bounds)-1, func(x int) bool { return bounds[x+1] > r })
	}
	for _, cell := range v.pendCell {
		offs[spanFor(int(cell/int64(C)))+1]++
	}
	for x := 0; x < w; x++ {
		offs[x+1] += offs[x]
	}
	spanStart := make([]int, w+1)
	copy(spanStart, offs)
	for i, cell := range v.pendCell {
		x := spanFor(int(cell / int64(C)))
		if packed {
			enc[offs[x]] = cell*int64(n) + int64(i)
		} else {
			enc[offs[x]] = int64(i)
		}
		offs[x]++
	}

	// Per-span sort + fold into the staging buffers; folded entries for
	// span x land at [spanStart[x], spanStart[x]+spanLen[x]) — the input
	// range bounds the output (folding only shrinks).
	if cap(s.foldPtr) < R+1 {
		s.foldPtr = make([]int, R+1)
	}
	foldPtr := s.foldPtr[:R+1]
	for i := range foldPtr {
		foldPtr[i] = 0
	}
	if cap(s.tmpCol) < n {
		s.tmpCol = make([]int, n)
	}
	if cap(s.tmpVal) < n {
		s.tmpVal = make([]V, n)
	}
	tmpCol, tmpVal := s.tmpCol[:n], s.tmpVal[:n]
	spanLen := make([]int, w)
	parallel.ForSpans(bounds, func(x, rLo, rHi int) {
		part := enc[spanStart[x]:spanStart[x+1]]
		if packed {
			slices.Sort(part)
		} else {
			slices.SortStableFunc(part, func(a, b int64) int {
				ca, cb := v.pendCell[a], v.pendCell[b]
				switch {
				case ca < cb:
					return -1
				case ca > cb:
					return 1
				}
				return 0
			})
		}
		out := 0
		base := spanStart[x]
		emit := func(cell int64, acc V) {
			if ops.IsZero(acc) {
				return
			}
			r := int(cell / int64(C))
			foldPtr[r+1]++
			tmpCol[base+out] = int(cell % int64(C))
			tmpVal[base+out] = acc
			out++
		}
		var acc V
		curCell := int64(-1)
		for _, e := range part {
			var cell int64
			var i int
			if packed {
				cell = e / int64(n)
				i = int(e % int64(n))
			} else {
				i = int(e)
				cell = v.pendCell[i]
			}
			val := v.pendVal[i]
			if cell != curCell {
				if curCell >= 0 {
					emit(curCell, acc)
				}
				curCell = cell
				acc = val
			} else {
				acc = ops.Add(acc, val)
			}
		}
		if curCell >= 0 {
			emit(curCell, acc)
		}
		spanLen[x] = out
	})

	// Stitch: prefix the per-row counts into foldPtr, then copy each
	// span's staged block to its final contiguous position (span rows
	// are contiguous, so one copy per span suffices).
	for i := 0; i < R; i++ {
		foldPtr[i+1] += foldPtr[i]
	}
	total := foldPtr[R]
	foldCol := s.foldCol[:0]
	if cap(foldCol) < total {
		foldCol = make([]int, 0, total+total/2)
	}
	foldCol = foldCol[:total]
	foldVal := s.foldVal[:0]
	if cap(foldVal) < total {
		foldVal = make([]V, 0, total+total/2)
	}
	foldVal = foldVal[:total]
	parallel.ForSpans(bounds, func(x, rLo, rHi int) {
		dst := foldPtr[rLo]
		copy(foldCol[dst:dst+spanLen[x]], tmpCol[spanStart[x]:spanStart[x]+spanLen[x]])
		copy(foldVal[dst:dst+spanLen[x]], tmpVal[spanStart[x]:spanStart[x]+spanLen[x]])
	})
	s.enc = enc
	s.foldCol, s.foldVal = foldCol, foldVal
}

// Snapshot returns an immutable read view of the current state: the
// adjacency array, both incidence arrays, and counters. The arrays
// share storage with the live state, and subsequent appends leave
// everything reachable from the snapshot untouched (copy-on-write), so
// a snapshot costs O(1) — except when appends happened since the last
// read, in which case the pending backlog is folded into the main
// adjacency first (amortized across those appends).
func (v *View[V]) Snapshot() (Snapshot[V], error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.flushLogLocked(); err != nil {
		return Snapshot[V]{}, err
	}
	if err := v.materializeLocked(); err != nil {
		return Snapshot[V]{}, err
	}
	if err := v.embedMainLocked(v.eout.ColKeys(), v.ein.ColKeys()); err != nil {
		return Snapshot[V]{}, err
	}
	v.mainShared = true
	return Snapshot[V]{
		Adjacency: v.main,
		Eout:      v.eout,
		Ein:       v.ein,
		Edges:     v.edges,
		Epoch:     v.epoch,
		Exact:     v.exact,
	}, nil
}

// Snapshot is an immutable view of a View's state at one epoch.
type Snapshot[V any] struct {
	// Adjacency is A = Eoutᵀ ⊕.⊗ Ein as maintained incrementally.
	Adjacency *assoc.Array[V]
	// Eout and Ein are the incidence log at this epoch.
	Eout, Ein *assoc.Array[V]
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
	if err := v.flushLogLocked(); err != nil {
		return err
	}
	v.pendCell = v.pendCell[:0]
	v.pendVal = v.pendVal[:0]
	if v.edges == 0 {
		v.appends = 0
		v.exact = true
		return nil
	}
	adj, err := v.eng.Partial(v.eout, v.ein)
	if err != nil {
		return err
	}
	if !v.mainShared {
		v.mainScr.Recycle(v.main.Matrix())
	}
	v.main = adj
	v.mainShared = false
	v.appends = 0
	v.exact = true
	return nil
}

// Stats summarizes the view without exposing its arrays. Taking stats
// never materializes: AdjNNZ counts the folded main level only, with
// PendingNNZ contribution entries still in the backlog (pre-fold, so
// several entries may later collapse into one stored cell).
type Stats struct {
	Edges       int  // edges in the log
	OutVertices int  // distinct source vertices
	InVertices  int  // distinct destination vertices
	AdjNNZ      int  // stored entries in the materialized main level
	PendingNNZ  int  // contribution entries awaiting the backlog fold
	Appends     int  // batches since the last compact
	Epoch       int  // batches ever applied
	Exact       bool // see Snapshot.Exact
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
		Edges:       v.edges,
		OutVertices: v.eout.ColKeys().Len(),
		InVertices:  v.ein.ColKeys().Len(),
		AdjNNZ:      v.main.NNZ(),
		PendingNNZ:  len(v.pendVal),
		Appends:     v.appends,
		Epoch:       v.epoch,
		Exact:       v.exact,
	}
}
