// Package adjarray is a Go implementation of associative arrays and
// semiring-parameterized graph construction, reproducing "Constructing
// Adjacency Arrays from Incidence Arrays" (Jananthan, Dibert, Kepner;
// IPDPS GABB 2017, arXiv:1702.07832).
//
// # Overview
//
// Graphs arrive from raw data as incidence arrays: Eout maps (edge,
// source-vertex) pairs to non-zero values and Ein maps (edge,
// target-vertex) pairs. Analysis usually wants the adjacency array
// A(v, w), obtained by array multiplication
//
//	A = Eoutᵀ ⊕.⊗ Ein
//
// where ⊕ and ⊗ are a caller-chosen operator pair such as arithmetic
// (+, ×), tropical (max, +), or bottleneck (max, min). The paper's
// Theorem II.1 gives the exact algebraic conditions under which this
// product is guaranteed to be an adjacency array for every graph:
//
//  1. ⊕ is zero-sum-free        (a ⊕ b = 0 ⇒ a = b = 0),
//  2. ⊗ has no zero divisors     (a ⊗ b = 0 ⇒ a = 0 or b = 0),
//  3. 0 annihilates under ⊗      (a ⊗ 0 = 0 ⊗ a = 0).
//
// Notably ⊕ and ⊗ need not be associative, commutative, or
// distributive — the value set need not be a semiring at all.
//
// This package is the stable public facade. It re-exports the
// building blocks:
//
//   - associative arrays over string keys with sparse storage, D4M-style
//     sub-array selection, transpose, and ⊕.⊗ multiplication;
//   - the operator-pair algebra with a property checker for the
//     Theorem II.1 conditions;
//   - the graph layer: incidence extraction, adjacency construction and
//     validation, reverse graphs, and the constructive counterexample
//     gadgets of Lemmas II.2–II.4;
//   - the end-to-end Build pipeline (graph-shaped operands fold,
//     everything else multiplies on the one engine; serial or parallel
//     by Workers), with the dense Definition I.3 oracle as the one
//     verification backend beside it;
//   - incremental maintenance: AdjacencyView keeps A up to date under
//     continuous edge ingest in two levels, LSM-style: the materialized
//     adjacency, and the suffix of the edge log it does not cover yet —
//     no second structure, the log itself, kept by stable interner id,
//     so an append is O(batch) even when it introduces vertices. Key
//     order (the sorted vertex universe, the key-ordered incidence
//     arrays of Snapshot.Logs) is established at the fold, and a fold
//     runs when someone needs the adjacency — a read, a checkpoint,
//     Compact — never on an append's own account: a bulk load is
//     appends, then ONE fold at its first read, which meeting an empty
//     adjacency is the batch construction itself (Exact stays true).
//     Ingest accumulates arriving triples into the delta batches of one
//     AdjacencyStore;
//   - one ingest store, shards × optional WAL: OpenAdjacencyStore
//     (internal/stream.Open) hash-partitions the vertex space by source
//     across N ≥ 1 shards (per-shard views and append locks), with
//     snapshots pinned to a per-shard epoch vector (Pin) and gathered at
//     most once per vector (Snapshot). Shards own disjoint adjacency
//     rows, so the gather is a concatenation — every stored row copied
//     once, no ⊕ — bit-identical to one shard for any operator pair, and
//     the disjointness is checked: two shards storing one source row are
//     refused by key, never summed. One shard is shards = 1; in-memory
//     is "no directory". On a directory every shard recovers from a
//     write-ahead incidence log plus checkpoints (internal/wal). A
//     checkpoint is the view as it lies in memory — the id-space edge
//     log, the interner slabs, the id → position arrays and the folded
//     adjacency, as CRC-closed sections (ADJCKPT format 2, the one
//     format) — pinned by slice header under the view lock and
//     streamed to disk with that lock released, so readers never wait
//     on one and nothing it allocates grows with the view. Recovery has
//     torn-tail repair, typed corruption errors, a refusal by name of
//     what it will not read — a directory under a different shard
//     count, a sharded one that lost its SHARDS file, a format-1
//     checkpoint (last written by PR 15) — and a kill-and-recover
//     gate in cmd/crashtest holding recovery bit-identical to the dense
//     oracle;
//   - production serving: internal/serve is cmd/adjserve's front door —
//     Prometheus-style GET /metrics (dependency-free internal/obs),
//     bounded admission pools per endpoint class shedding overload as
//     429 + Retry-After, and POST /batch answering many ops from one
//     pinned snapshot. Read answers are written in vertex-key order
//     from the kernels' vectors (CSRGraph's BFSLevelVector, SSSPVector,
//     WidestPathVector, PageRankVector) by an append-style encoder,
//     byte-compatible with the former encoding/json output over maps
//     (a golden test and two fuzz targets hold it to that). A view
//     has two pins. The whole-array pin (Snapshot, Pin) folds the
//     log's unfolded suffix into the materialized array first, because
//     its consumers want one array. The point pin
//     (AdjacencyStore.OwnerSnapshot, for /at and /row) pins only the
//     shard that owns the source vertex and never folds it, up to a
//     threshold of max(4096, nnz/8) unfolded edges: it answers
//     main(s,d) ⊕ the ⊕-fold of the suffix's contributions to (s,d) in
//     log order — main on the left, since main holds the earlier edge
//     keys, which is the grouping the fold's merge would have made, so
//     the answer is bit-identical to the fold it did not run — and a
//     read-your-write costs O(batch), not a copy of the shard. In its
//     "epochs" the owner's entry is the epoch the answer was pinned
//     at, a sibling's is that shard's current epoch, read without its
//     lock, a fold or a gather. Algorithm answers and /batch pin every
//     shard and build their Graph from the pinned shards' arrays
//     (algo.FromArrays: one copy, straight into the kernels' vertex
//     space); only /triples reads the gathered store-wide array. The
//     query_static and
//     mixed_rw workloads of the repository's benchmark (bench/,
//     BENCHMARK.json) drive the front door of a real adjserve child and
//     record per-endpoint latency percentiles;
//   - fault tolerance: internal/iofault injects deterministic disk
//     faults (EIO, ENOSPC, short and torn writes) through a VFS seam
//     under the WAL and the store's shards; a failed fsync or log write
//     wedges the store read-only — the durable boundary never advances
//     past a failed sync — while failed checkpoints only degrade, and
//     the front door keeps serving reads from the last good snapshot,
//     shedding ingest as 503 + Retry-After (/healthz and the
//     adjserve_storage_* metrics expose the ok → degraded → read-only
//     state machine; cmd/crashtest -faults gates the contract with
//     randomized fault schedules held bit-identical to the oracle);
//   - static analysis: internal/lint + cmd/adjlint is a go/analysis-
//     style suite that mechanically gates the invariants past PRs had
//     to find by hand — nondeterministic ⊕-folds over map iteration,
//     dropped fsync errors on the WAL path, sync.Pool scratch aliasing,
//     and in-place mutation of copy-on-write snapshot slices; run standalone (adjlint ./...) or
//     as go vet -vettool, gating in CI.
//
// # Batch and incremental construction
//
// The edge dimension is the reduction dimension of the construction,
// so an appended edge batch K′ contributes exactly one partial
// product — the delta identity:
//
//	A ⊕= Eout[K′,:]ᵀ ⊕.⊗ Ein[K′,:]
//
// An AdjacencyView owns an append-only incidence log plus the current
// adjacency and applies batches through this identity instead of
// rebuilding; Snapshot returns immutable copy-on-write read views in
// O(1). Edge keys must arrive in ascending order, which keeps the
// per-cell ⊕ fold ORDER equal to the sequential Definition I.3 fold —
// incremental folding only re-groups it, so the maintained state equals
// the one-shot construction exactly when ⊕ is associative on the data
// (sampled by StreamOptions.CheckAssociative; see the paper's companion
// work on algebraic conditions for generating accurate adjacency
// arrays). For non-associative ⊕, Snapshot.Exact reports the possible
// divergence and Compact rebuilds the exact fold from the log.
//
// # Construction is a fold
//
// Definition I.4 gives each incidence array of a graph one entry per
// edge row, so for a graph A = Eoutᵀ ⊕.⊗ Ein is a group-by: A(s,d) is
// the ⊕-fold, in ascending edge-key order, of Eout(k,s) ⊗ Ein(k,d) over
// the edges k from s to d. Correlate — and with it Adjacency, Build,
// Compact, a bootstrapped view — recognises that shape by itself (one row
// key set, both matrices marked unit-row where their row pointers were
// last walked) and runs sparse.FoldUnitRows on the two column arrays: a
// stable counting sort on the source, then per row a stable grouping on
// the target. Nothing is transposed; a view's fold of its unfolded log
// suffix is the same kernel. Anything else — hyperedge rows, multi-hop A·A, masked
// products, row keys that merely overlap — multiplies on the engine
// below. The results cannot be told apart: row s of a unit-row Eoutᵀ
// lists the edges out of s in key order, so the engine meets the
// contributions to A(s,d) in the order the fold does, and both apply ⊕
// left to right and prune at emission. internal/conformance enforces it,
// the engine as the explicit reference and the fold as a path under test.
//
// # Multiplication engine
//
// Every general array multiplication runs on one engine,
// sparse.Mxm(mask, A, B, ⊕.⊗, options): two-phase symbolic/numeric
// SpGEMM. A stamp-only
// symbolic pass computes exact per-row output sizes (under a mask the
// mask's own row sizes are the bound and the pass is skipped), the
// output arrays are allocated once, and the numeric pass writes rows in
// place (no stitch step). MulOptions{} is serial: one span, run inline.
// With MulOptions.Workers > 1 (or < 0 for GOMAXPROCS) both phases run
// across FLOP-BALANCED row spans: the per-row flop counts from the
// symbolic model are prefix-summed and cut into equal-work spans by
// binary search, so the hub rows of a skewed (R-MAT-like) workload
// spread across workers instead of serializing one of them. A product
// whose total flop count is below MulOptions.FlopFloor (default
// sparse.DefaultParallelFlopFloor) runs serially anyway — goroutine
// overhead never makes a parallel request slower than a serial one on
// small inputs. Scratch (stamps, accumulators) is recycled through
// sync.Pool, so steady-state repeated multiplications allocate only
// their output. The canonical "+.*" over float64 dispatches to a
// monomorphized row function with the arithmetic inlined — the engine's
// only specialization. Beside the engine stand two implementations no
// production path runs: sparse.MulMerge, the independent sparse
// reference, and sparse.MulDense, the literal Definition I.3 oracle
// (BackendDense). All three fold the contributions to an output entry
// in ascending key order over the shared dimension, so they are
// bit-identical even for non-commutative or non-associative ⊕ wherever
// Theorem II.1 makes the dense comparison meaningful.
//
// # One index width
//
// Definition I.1 makes every array an array over finite, totally
// ordered key sets, so an index is a position in a key set — and below
// the API it is an int32, once: sparse.CSR's rowPtr and colIdx, the
// Graph's endpoint columns, every key-set position map, the kernels'
// frontiers and touched lists, the interner's ids, the view's edge log
// and ADJCKPT's colIdx section are all 4 bytes wide, and nothing is
// widened or narrowed in between. A stored entry of a float64 array is
// 12 bytes (8 of value) and a row 4; a serving algo.Graph is 16 bytes
// per entry — its CSR plus a pattern-only transpose, a
// sparse.CSR[struct{}] whose values occupy nothing — and 24 once SSSP
// or WidestPath has pulled along weighted in-edges. The cap that buys is
// 2³¹−1 rows, columns and stored entries per array. It is refused by
// name wherever an array is assembled (errors wrapping
// sparse.ErrIndexRange or keys.ErrTooManyKeys; NewGraph and the interner
// imposed it already), and a stored checkpoint word of 2³¹ or more is a
// *wal.CorruptError naming its section and offset. Dimensions, NNZ(),
// At's coordinates and the vectors the algorithms hand back
// (BFSLevelVector's []int) keep the types they had.
//
// # Key interning
//
// The string-key boundary is served by slab-backed interners
// (internal/keys.Interner): every distinct key is stored once as raw
// bytes in an append-only slab and mapped to a stable dense int32 id
// through an open-addressed hash over the key bytes — no per-key
// string-header allocations and no map[string]int on hot paths. Ids
// are stable forever; SORTED order is a lazily derived view, so the
// maintained adjacency view caches one flat id→position array per
// vertex universe and resolves an ingested edge's endpoints with two
// array reads. Universe key Sets are bound to their interner
// (keys.Set.Bind), so Set.Index delegates to the shared hash table
// instead of building a second map per Set — for huge universes that
// second map used to double the key-set memory. The facade API stays
// string-keyed; interning is purely an internal representation.
//
// The batch path interns too: NewGraph sorts the edge list once,
// interns each endpoint column and keeps per-edge positions, and
// Incidence assembles Eout and Ein directly as unit-row CSRs that share
// the Graph's own key Sets. Their row Sets are one pointer, so the key
// alignment Adjacency performs before multiplying (Eoutᵀ's columns
// against Ein's rows) is O(1) instead of one string compare per edge,
// and IsAdjacencyOf checks Definition I.5 on positions.
//
// # Quick start
//
//	eout := adjarray.FromTriples([]adjarray.Triple[float64]{
//		{Row: "edge1", Col: "alice", Val: 1},
//		{Row: "edge2", Col: "alice", Val: 1},
//	}, nil)
//	ein := adjarray.FromTriples([]adjarray.Triple[float64]{
//		{Row: "edge1", Col: "bob", Val: 1},
//		{Row: "edge2", Col: "carol", Val: 1},
//	}, nil)
//	a, err := adjarray.Correlate(eout, ein, adjarray.PlusTimes(), adjarray.MulOptions{})
//	// a("alice", "bob") = 1, a("alice", "carol") = 1
//
// See the examples directory for complete programs, including the
// reproduction of the paper's music-metadata figures.
package adjarray
