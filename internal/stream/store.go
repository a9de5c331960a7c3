package stream

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"adjarray/internal/assoc"
	"adjarray/internal/iofault"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
)

// Store is the one ingest object: N ≥ 1 shards, each a View plus — when
// the store was opened on a directory — the write-ahead log and
// checkpoints that make its batches survive the process. One shard is
// Shards: 1, in-memory is "no directory"; neither is a different type.
//
// Routing is by source vertex: every edge lands on the shard that owns
// hash(Src), so each shard owns a DISJOINT set of adjacency ROWS. That
// makes the scatter-gather exact by construction: all contributions to
// row r — for every destination column — arrive at one shard in global
// arrival order and the shard's View folds them exactly as a single view
// would. The gather therefore has nothing to ⊕: it CONCATENATES the
// per-shard adjacencies, each stored row copied once into the union key
// space (assoc.ConcatRows), and the result is bit-identical to the
// one-shard construction — and so to the batch construction over the
// store's Logs — regardless of ⊕. Disjoint row
// ownership is checked by that gather, not assumed: two shards storing
// the same source row (a shard directory copied over a sibling, a store
// written under another routing hash) fail the gather with an error
// naming the row and the shards, where an element-wise merge would have
// silently summed them.
//
// The routing hash is a fixed FNV-1a over the Src bytes — deliberately
// NOT the interner's per-process maphash seed, so routing is stable
// across restarts and a shard directory always receives the vertices it
// held before recovery.
//
// Edge keys follow View's discipline per shard: explicit keys must
// arrive so that each shard's subsequence stays strictly ascending (any
// globally ascending stream qualifies); empty keys are auto-assigned by
// the owning shard's View, whose generator carries a shard-unique
// prefix when there is more than one shard — safe under concurrent
// Append, where interleaving makes a single global sequence impossible
// to hand out in arrival order. Don't mix auto-assigned and explicit
// keys. Keys must be globally unique across the whole store (ascending
// explicit streams and the auto prefixes both guarantee this).
//
// A multi-shard Append is atomic per shard, not across shards: shards
// are applied in ascending index order and an error reports the shard
// that rejected its sub-batch, with lower-indexed shards already
// committed. Callers that need all-or-nothing batches should route
// per-shard batches themselves.
type Store[V any] struct {
	ops   semiring.Ops[V]
	parts []*partition[V]

	scatter sync.Pool // *[][]Edge[V], one sub-batch per shard

	// cmu guards the last snapshot, reused while the epoch vector is
	// unchanged so repeated queries share one gather, and the vector the
	// last pin saw, which outlives the snapshot (Append drops that): a
	// shard whose epoch is still the one pinned has nothing to fold.
	cmu    sync.Mutex
	cached StoreSnapshot[V]
	pinned []int
}

// FNV-1a, fixed parameters: the routing hash must be identical across
// processes and restarts (the interner's maphash seed is per-process,
// which would re-partition a durable store on every reopen).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func routeHash(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// shardMetaFile records the shard count of a multi-shard directory;
// reopening honors it (a different count would re-partition the vertex
// space and scatter a vertex's row across shards).
const shardMetaFile = "SHARDS"

// Open recovers (or creates) a store. dir == "" keeps it in memory;
// otherwise every shard recovers from its newest valid checkpoint plus
// a WAL replay, repairs a torn final record, reaps orphaned checkpoint
// temp files, and opens a fresh log segment — mid-log corruption and
// every-checkpoint-invalid states fail with an error matching
// wal.ErrCorrupt, never a silently diverged view.
//
// shards follows one convention everywhere: 0 or 1 is one shard, < 0
// selects GOMAXPROCS. A single shard lives at the directory root; more
// live under dir/shard-NNN with the count recorded in dir/SHARDS, which
// is on stable storage before the first of them exists, as their entries
// in dir are before Open returns. The directory's layout wins over a
// count left to GOMAXPROCS and refuses an explicit count that disagrees
// with it, in both directions; shard-NNN directories whose SHARDS file is
// gone are refused under every count — Open reads what the directory
// holds or says by name why not.
//
// dopt tunes the durable side and is ignored in memory.
func Open[V any](dir string, ops semiring.Ops[V], shards int, dopt DurableOptions[V]) (*Store[V], error) {
	if dopt.FS == nil {
		dopt.FS = iofault.OS
	}
	dirs, err := layout(dopt.FS, dir, shards)
	if err != nil {
		return nil, err
	}
	n := len(dirs)
	s := &Store[V]{ops: ops, parts: make([]*partition[V], n)}
	s.scatter.New = func() any {
		sub := make([][]Edge[V], n)
		return &sub
	}
	unwind := func(opened []*partition[V]) {
		for _, q := range opened {
			q.close() //adjlint:ignore syncerr sibling unwind on open failure; the open error is the one returned
		}
	}
	for i, d := range dirs {
		prefix := "" // one shard: the view's own default
		if n > 1 {
			prefix = fmt.Sprintf("s%03d-", i)
		}
		p, err := openPartition(d, ops, prefix, dopt)
		if err != nil {
			unwind(s.parts[:i])
			return nil, fmt.Errorf("stream: shard %d: %w", i, err)
		}
		s.parts[i] = p
	}
	if dir != "" && dirs[0] != dir {
		// Each shard's log made its own directory and synced it, but a
		// shard-NNN entry lives in dir: until dir is synced a power cut can
		// leave a durable SHARDS and no trace of a shard whose batches were
		// acknowledged. Once, before the first Append can be.
		if err := dopt.FS.SyncDir(dir); err != nil {
			unwind(s.parts)
			return nil, err
		}
	}
	return s, nil
}

// layout resolves the shard count against what dir already holds and
// returns one directory per shard ("" each, in memory). It is the only
// place that knows the on-disk layout.
func layout(fsys iofault.FS, dir string, shards int) ([]string, error) {
	n, explicit := max(shards, 1), shards >= 0
	if !explicit {
		n = runtime.GOMAXPROCS(0)
	}
	if dir == "" {
		return make([]string, n), nil
	}
	// What the directory holds: recorded shards (0 = nothing yet), and
	// whether that is the one-shard layout at the root.
	recorded, rooted := 0, false
	metaPath := filepath.Join(dir, shardMetaFile)
	if data, err := fsys.ReadFile(metaPath); err == nil {
		text := strings.TrimSpace(string(data))
		if recorded, err = strconv.Atoi(text); err != nil || recorded < 1 {
			return nil, fmt.Errorf("stream: %s holds %q, not a shard count", metaPath, text)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		rooted = true
		ents, err := fsys.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		for _, e := range ents {
			switch name := e.Name(); {
			case e.IsDir() && strings.HasPrefix(name, "shard-"):
				// Opened at the root it would come up empty, under a new
				// count re-partitioned: neither is this store.
				return nil, fmt.Errorf("stream: %s holds %s but no %s file: the shard count it was created with is lost; restore %s (one line, the number of shard-NNN directories) to open it",
					dir, name, shardMetaFile, metaPath)
			case strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "ckpt-"):
				recorded = 1
			}
		}
	}
	switch {
	case recorded == 0 && n > 1:
		rooted = false
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := writeShardMeta(fsys, dir, n); err != nil {
			return nil, err
		}
	case recorded == 0:
	case explicit && n != recorded:
		return nil, fmt.Errorf("stream: %s was created with %d shards; reopening with %d would re-partition the vertex space", dir, recorded, n)
	default:
		n = recorded
	}
	if rooted {
		return []string{dir}, nil
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
	}
	return dirs, nil
}

// writeShardMeta publishes dir/SHARDS and makes it durable — temp file,
// fsync, rename, directory fsync — before the caller creates the first
// shard directory: shard-NNN directories without the count that routes
// to them are a store nothing can open (see layout), so the count must
// never be the younger of the two on disk.
func writeShardMeta(fsys iofault.FS, dir string, n int) error {
	metaPath := filepath.Join(dir, shardMetaFile)
	f, err := fsys.OpenFile(metaPath+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte(strconv.Itoa(n) + "\n"))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(metaPath+".tmp", metaPath)
	}
	if err == nil {
		err = fsys.SyncDir(dir)
	}
	return err
}

// Shards returns the shard count.
func (s *Store[V]) Shards() int { return len(s.parts) }

// ShardFor returns the shard that owns a source vertex — exposed for
// tests and benchmarks that construct per-shard workloads.
func (s *Store[V]) ShardFor(src string) int {
	return int(routeHash(src) % uint64(len(s.parts)))
}

// Persistent reports whether the store was opened on a directory and
// persists through per-shard WALs.
func (s *Store[V]) Persistent() bool { return s.parts[0].durable() }

// Append routes one edge batch to its owning shards and applies each
// sub-batch under that shard's lock only — appends touching disjoint
// shards proceed concurrently. The caller's slice is never written. See
// the type comment for the key discipline and the per-shard atomicity
// contract.
//
// On a durable store the batch is framed into the owning shards' WALs
// under the configured fsync policy: with SyncEveryAppend it is durable
// when Append returns, otherwise durability trails by at most the sync
// interval. Once a shard's WAL write or fsync has failed that shard is
// read-only: every further Append routed to it returns an error
// matching ErrReadOnly while its siblings keep accepting their rows.
func (s *Store[V]) Append(edges []Edge[V]) error {
	if len(edges) == 0 {
		return nil
	}
	// The cached snapshot's vector is about to go stale; dropping it now
	// rather than at the next Snapshot lets the arrays it pins go as
	// soon as the views move on.
	defer s.dropCached()
	n := len(s.parts)
	if n == 1 {
		return s.parts[0].append(edges)
	}
	sp := s.scatter.Get().(*[][]Edge[V])
	sub := *sp
	for _, e := range edges {
		i := routeHash(e.Src) % uint64(n)
		sub[i] = append(sub[i], e)
	}
	var err error
	for i, p := range s.parts {
		if err == nil && len(sub[i]) > 0 {
			if aerr := p.append(sub[i]); aerr != nil {
				err = fmt.Errorf("stream: shard %d: %w", i, aerr)
			}
		}
		clear(sub[i]) // don't retain edge strings past the append
		sub[i] = sub[i][:0]
	}
	s.scatter.Put(sp)
	return err
}

// StoreSnapshot is an immutable scatter-gather read view: per-shard
// snapshots pinned at one epoch vector and the adjacency gathered from
// them. Every copy of one snapshot shares the gather.
type StoreSnapshot[V any] struct {
	// Adjacency is A = Eoutᵀ ⊕.⊗ Ein over the union vertex universe.
	// Snapshot always fills it; Pin only when the gather at this vector
	// has already run.
	Adjacency *assoc.Array[V]
	// Shards holds each shard's pinned snapshot, ascending shard order.
	Shards []Snapshot[V]
	// Epochs is the pinned epoch vector, Epochs[i] = Shards[i].Epoch —
	// the consistency token query layers cache against.
	Epochs []int
	// Epoch is the sum of the vector: one scalar for consumers that
	// only order snapshots.
	Epoch int
	// Edges is the edge count across all shard logs.
	Edges int

	g *gather[V]
}

// gather is the lazily merged state behind one epoch vector.
type gather[V any] struct {
	ops semiring.Ops[V]

	adjOnce sync.Once
	adj     *assoc.Array[V]
	adjErr  error
	adjDone atomic.Bool // adj and adjErr are set: readable without going through adjOnce

	logOnce   sync.Once
	eout, ein *assoc.Array[V]
	logErr    error
}

// Pin pins one consistent epoch per shard — each shard's snapshot
// immutable and copy-on-write exactly as View.Snapshot — and returns
// them WITHOUT gathering: Shards, the epoch vector and the counters are
// filled, Adjacency only if a Snapshot at the same vector has gathered
// already. It is the read for a consumer that works from the shards'
// arrays themselves: a graph kernel builds its vertex space straight
// from them (algo.FromArrays), a /batch's point ops go to the pinned
// shard that owns their row (ShardFor), and neither needs the store-wide
// array a gather would copy together. (A point read on its own does not
// pin the store at all: OwnerSnapshot.) While the vector is unchanged the same snapshot
// is returned again, without touching the heap.
//
// A shard whose epoch moved since the last pin has a fold to run; the
// first such shard folds on the caller's goroutine and every further one
// on its own, so the shards' folds overlap instead of queueing. An error
// is the lowest-indexed shard's.
func (s *Store[V]) Pin() (StoreSnapshot[V], error) {
	var few [4]Snapshot[V] // keeps the unchanged-vector path off the heap
	snaps := few[:0]
	if len(s.parts) > len(few) {
		snaps = make([]Snapshot[V], 0, len(s.parts))
	}
	snaps = snaps[:len(s.parts)]
	s.cmu.Lock()
	last := s.pinned
	s.cmu.Unlock()
	var aside []int32 // the moved shards after the first, ascending
	lead := false
	for i, p := range s.parts {
		if last != nil && int(p.epoch()) == last[i] {
			continue
		}
		if lead {
			aside = append(aside, int32(i))
		}
		lead = true
	}
	var bg *foldsAside[V]
	if len(aside) > 0 {
		bg = s.foldAside(aside)
	}
	var err error
	errAt := len(s.parts)
	for i, p := range s.parts {
		if len(aside) > 0 && int(aside[0]) == i {
			aside = aside[1:]
			continue
		}
		var serr error
		if snaps[i], serr = p.v.Snapshot(); serr != nil && i < errAt {
			err, errAt = serr, i
		}
	}
	if bg != nil {
		bg.wg.Wait()
		for j, i := range bg.shards {
			snaps[i] = bg.snaps[j]
			if bg.errs[j] != nil && int(i) < errAt {
				err, errAt = bg.errs[j], int(i)
			}
		}
	}
	if err != nil {
		return StoreSnapshot[V]{}, fmt.Errorf("stream: shard %d: %w", errAt, err)
	}
	s.cmu.Lock()
	fresh := s.cached.g == nil
	for i := range snaps {
		fresh = fresh || s.cached.Epochs[i] != snaps[i].Epoch
	}
	if fresh {
		c := StoreSnapshot[V]{Shards: slices.Clone(snaps), Epochs: make([]int, len(snaps)), g: &gather[V]{ops: s.ops}}
		for i, sn := range snaps {
			c.Epochs[i] = sn.Epoch
			c.Epoch += sn.Epoch
			c.Edges += sn.Edges
		}
		s.cached, s.pinned = c, c.Epochs
	}
	snap := s.cached
	s.cmu.Unlock()
	if snap.g.adjDone.Load() {
		snap.Adjacency = snap.g.adj
	}
	return snap, nil
}

// foldsAside is Pin's shards that snapshot on goroutines of their own.
type foldsAside[V any] struct {
	wg     sync.WaitGroup
	shards []int32
	snaps  []Snapshot[V]
	errs   []error
}

// foldAside starts one goroutine per shard in shards, each taking that
// shard's Snapshot (a fold, if it has appends to fold); wait on wg before
// reading what they return.
func (s *Store[V]) foldAside(shards []int32) *foldsAside[V] {
	bg := &foldsAside[V]{shards: shards, snaps: make([]Snapshot[V], len(shards)), errs: make([]error, len(shards))}
	bg.wg.Add(len(shards))
	for j, i := range shards {
		go func() {
			defer bg.wg.Done()
			bg.snaps[j], bg.errs[j] = s.parts[i].v.Snapshot()
		}()
	}
	return bg
}

// Snapshot is Pin plus the gather: the read view with Adjacency filled,
// the per-shard adjacencies concatenated into one array over the union
// vertex universe. The gather runs once per epoch vector, outside the
// store's locks, and is shared by every snapshot at that vector; a
// one-shard store has nothing to gather.
func (s *Store[V]) Snapshot() (StoreSnapshot[V], error) {
	snap, err := s.Pin()
	if err != nil {
		return StoreSnapshot[V]{}, err
	}
	g := snap.g
	g.adjOnce.Do(func() {
		g.adj, g.adjErr = mergeAdjacency(snap.Shards)
		g.adjDone.Store(true)
	})
	if g.adjErr != nil {
		return StoreSnapshot[V]{}, g.adjErr
	}
	snap.Adjacency = g.adj
	return snap, nil
}

// OwnerSnapshot pins only the shard that owns src — the routing hash
// that makes the gather exact also says where a source vertex's whole
// adjacency row lives — for point reads (View.Point: main ⊕ the log's
// unfolded suffix, no fold up to the threshold there), and returns that
// pin with the store's epoch vector: the owner's entry is the pinned
// epoch, every sibling's is its current epoch, read without its lock — a
// sibling in the middle of a fold is neither waited for nor made to fold.
// It is the read for one row or one cell: nothing is gathered and nothing
// is copied, so its cost grows neither with the shard count nor with the
// shard, only with what was appended since the owner's last fold. A key
// the owner has never seen is simply absent from the answers.
func (s *Store[V]) OwnerSnapshot(src string) (PointSnapshot[V], []int, error) {
	owner := s.ShardFor(src)
	pt, err := s.parts[owner].v.Point()
	if err != nil {
		return PointSnapshot[V]{}, nil, fmt.Errorf("stream: shard %d: %w", owner, err)
	}
	epochs := make([]int, len(s.parts))
	for i, p := range s.parts {
		if i != owner {
			epochs[i] = int(p.epoch())
		}
	}
	epochs[owner] = pt.Epoch
	return pt, epochs, nil
}

// mergeAdjacency gathers the per-shard adjacencies into one array
// spanning the union vertex universe. Shards own disjoint row sets, so
// this is a concatenation — every stored row copied once, no ⊕ — and it
// is exact for any operator pair; a row two shards both store is refused
// (see the Store comment), the error naming its key and the shards.
func mergeAdjacency[V any](shards []Snapshot[V]) (*assoc.Array[V], error) {
	parts := make([]*assoc.Array[V], len(shards))
	for i, sn := range shards {
		parts[i] = sn.Adjacency
	}
	adj, err := assoc.ConcatRows(parts)
	if err != nil {
		return nil, fmt.Errorf("stream: gathering %d shards (a part is a shard): %w", len(shards), err)
	}
	return adj, nil
}

// Logs gathers the per-shard incidence logs into one pair spanning the
// union edge-key and vertex universes. Edge keys are globally unique
// (ascending explicit streams; prefixed auto keys), so the row sets are
// disjoint and the gather — like the adjacency merge — never
// ⊕-combines entries. The merged log's row order is ascending key
// order, exactly a one-shard log's order. Computed on first request,
// once per snapshot.
func (s StoreSnapshot[V]) Logs() (eout, ein *assoc.Array[V], err error) {
	g := s.g
	g.logOnce.Do(func() { g.eout, g.ein, g.logErr = mergeLogs(s.Shards, g.ops) })
	return g.eout, g.ein, g.logErr
}

func mergeLogs[V any](shards []Snapshot[V], ops semiring.Ops[V]) (eout, ein *assoc.Array[V], err error) {
	if eout, ein, err = shards[0].Logs(); err != nil {
		return nil, nil, err
	}
	for _, sn := range shards[1:] {
		if sn.Edges == 0 {
			continue
		}
		so, si, err := sn.Logs()
		if err != nil {
			return nil, nil, err
		}
		if eout, err = assoc.Add(eout, so, ops); err != nil {
			return nil, nil, err
		}
		if ein, err = assoc.Add(ein, si, ops); err != nil {
			return nil, nil, err
		}
	}
	return eout, ein, nil
}

// eachShard runs fn on every shard in order and reports the first
// error, tagged with its shard. Every shard is visited regardless.
func (s *Store[V]) eachShard(fn func(p *partition[V]) error) error {
	var first error
	for i, p := range s.parts {
		if err := fn(p); err != nil && first == nil {
			first = fmt.Errorf("stream: shard %d: %w", i, err)
		}
	}
	return first
}

func (s *Store[V]) dropCached() {
	s.cmu.Lock()
	s.cached = StoreSnapshot[V]{}
	s.cmu.Unlock()
}

// Sync forces every shard's log to stable storage, advancing each
// DurableEpoch to its Epoch regardless of policy.
func (s *Store[V]) Sync() error { return s.eachShard((*partition[V]).sync) }

// Checkpoint writes a covering checkpoint for every shard, then retires
// the log segments and old checkpoints it supersedes. Transient write
// faults are retried with capped backoff; a checkpoint that still fails
// leaves its shard degraded (WAL durability is unaffected) until a
// later attempt succeeds.
func (s *Store[V]) Checkpoint() error { return s.eachShard((*partition[V]).checkpoint) }

// Close syncs and releases every shard's log. It does NOT write a final
// checkpoint — callers wanting one (graceful shutdown) call Checkpoint
// first; recovery replays the log tail either way. All shards are
// closed regardless of errors; the first error is reported.
func (s *Store[V]) Close() error { return s.eachShard((*partition[V]).close) }

// Abort releases every shard's log without the graceful-shutdown steps
// — no durability promise beyond what the fsync policy already
// delivered. Tests use it to simulate an unclean exit before reopening
// the directory.
func (s *Store[V]) Abort() {
	for _, p := range s.parts {
		p.abort()
	}
}

// StoreStats aggregates the per-shard counters.
type StoreStats struct {
	Shards    int     // shard count
	Edges     int     // edges across all shard logs
	Epochs    []int   // per-shard batch epochs (the consistency vector)
	AdjNNZ    int     // stored adjacency entries across shards (rows are disjoint, so the sum is exact)
	Pending   int     // edges in the shards' unfolded log suffixes (all of Edges on a store nobody has read; under point reads alone it may stay non-zero, bounded by max(4096, AdjNNZ/8) per shard)
	Folds     int     // folds run across shards
	FoldNanos int64   // time in them, summed (shards fold concurrently)
	PerShard  []Stats // the full per-shard counters
}

// Stats returns aggregated counters plus the per-shard breakdown.
func (s *Store[V]) Stats() StoreStats {
	st := StoreStats{
		Shards:   len(s.parts),
		Epochs:   make([]int, len(s.parts)),
		PerShard: make([]Stats, len(s.parts)),
	}
	for i, p := range s.parts {
		ps := p.v.Stats()
		st.PerShard[i] = ps
		st.Epochs[i] = ps.Epoch
		st.Edges += ps.Edges
		st.AdjNNZ += ps.AdjNNZ
		st.Pending += ps.PendingNNZ
		st.Folds += ps.Folds
		st.FoldNanos += ps.FoldNanos
	}
	return st
}

// InternerStats sums the per-shard interner footprints. Each shard
// interns only the keys its rows own, so the sums are the store-wide
// slab bytes and table capacity; Keys may count a key once per shard
// side that sees it. No view lock is taken — the interners lock
// internally — so this is safe to poll at any ingest rate.
func (s *Store[V]) InternerStats() (out, in keys.InternerStats) {
	for _, p := range s.parts {
		o, i := p.v.InternerStats()
		out.Keys += o.Keys
		out.SlabBytes += o.SlabBytes
		out.TableSlot += o.TableSlot
		in.Keys += i.Keys
		in.SlabBytes += i.SlabBytes
		in.TableSlot += i.TableSlot
	}
	return out, in
}

// Durability returns each shard's durability position.
func (s *Store[V]) Durability() []DurabilityStats {
	out := make([]DurabilityStats, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.durability()
	}
	return out
}

// Recovery returns what each shard found on disk when the store opened.
func (s *Store[V]) Recovery() []RecoveryInfo {
	out := make([]RecoveryInfo, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.recovery
	}
	return out
}

// StorageHealth aggregates the per-shard storage states: the worst
// per-shard state (a single read-only shard makes the aggregate
// read-only — that slice of the vertex space is shedding writes), the
// summed fault count, and the first sick shard's error. per is the
// per-shard breakdown in shard order. Note the append path stays
// per-shard: healthy siblings keep accepting their rows even while the
// aggregate reads read-only, so callers shedding on the aggregate alone
// over-shed; map per-append errors (ErrReadOnly) instead and use the
// aggregate for health reporting.
func (s *Store[V]) StorageHealth() (agg StorageHealth, per []StorageHealth) {
	per = make([]StorageHealth, len(s.parts))
	for i, p := range s.parts {
		h := p.health()
		per[i] = h
		agg.Faults += h.Faults
		agg.State = max(agg.State, h.State)
		if agg.Err == "" && h.Err != "" {
			agg.Err = fmt.Sprintf("shard %d: %s", i, h.Err)
		}
	}
	return agg, per
}

// ErrReadOnly matches the error Append returns once a storage failure
// has wedged a shard's write path: errors.Is(err, stream.ErrReadOnly).
// Reads stay available; serving layers map this to 503 + Retry-After.
var ErrReadOnly = errors.New("stream: storage is read-only")

// readOnlyError carries the underlying storage failure behind
// ErrReadOnly.
type readOnlyError struct{ err error }

func (e *readOnlyError) Error() string {
	return "stream: store is read-only (storage failed): " + e.err.Error()
}

func (e *readOnlyError) Unwrap() error { return e.err }

func (e *readOnlyError) Is(target error) bool { return target == ErrReadOnly }
