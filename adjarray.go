package adjarray

import (
	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/conformance"
	"adjarray/internal/core"
	"adjarray/internal/graph"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
)

// Associative arrays (Definition I.1).

// Array is an associative array K1×K2 → V over string keys.
type Array[V any] = assoc.Array[V]

// Triple is one stored (row, col, value) entry.
type Triple[V any] = assoc.Triple[V]

// Builder accumulates triples for an Array.
type Builder[V any] = assoc.Builder[V]

// Table is a dense relational table, the input of Explode.
type Table = assoc.Table

// ExplodeOptions configures the table → incidence transform.
type ExplodeOptions = assoc.ExplodeOptions

// MulOptions tunes how a multiplication is scheduled (Workers,
// FlopFloor); the zero value is serial.
type MulOptions = assoc.MulOptions

// FromTriples builds an Array from entries; nil combine keeps the last
// duplicate (D4M overwrite semantics).
func FromTriples[V any](ts []Triple[V], combine func(V, V) V) *Array[V] {
	return assoc.FromTriples(ts, combine)
}

// NewBuilder creates a Builder with the given duplicate-combining rule.
func NewBuilder[V any](combine func(V, V) V) *Builder[V] { return assoc.NewBuilder(combine) }

// Explode converts a dense table into its sparse incidence view
// ("field|value" columns, Figure 1).
func Explode(t Table, opt ExplodeOptions) (*Array[float64], error) { return assoc.Explode(t, opt) }

// Implode reverses Explode.
func Implode(a *Array[float64], sep, multiSep string) (Table, error) {
	return assoc.Implode(a, sep, multiSep)
}

// Mul computes A ⊕.⊗ B with D4M key alignment on the shared dimension.
func Mul[V any](a, b *Array[V], ops Ops[V], opt MulOptions) (*Array[V], error) {
	return assoc.Mul(a, b, ops, opt)
}

// Correlate computes Aᵀ ⊕.⊗ B — the paper's adjacency-construction form.
func Correlate[V any](a, b *Array[V], ops Ops[V], opt MulOptions) (*Array[V], error) {
	return assoc.Correlate(a, b, ops, opt)
}

// MulDense computes the literal Definition I.3 product including
// structural zeros; the verification oracle.
func MulDense[V any](a, b *Array[V], ops Ops[V]) (*Array[V], error) {
	return assoc.MulDense(a, b, ops)
}

// EWiseAdd computes the element-wise A ⊕ B over the union key space.
func EWiseAdd[V any](a, b *Array[V], ops Ops[V]) (*Array[V], error) { return assoc.Add(a, b, ops) }

// EWiseMul computes the element-wise A ⊗ B over the union key space.
func EWiseMul[V any](a, b *Array[V], ops Ops[V]) (*Array[V], error) {
	return assoc.ElementMul(a, b, ops)
}

// Format renders an array as an aligned D4M-style grid.
func Format[V any](a *Array[V], format func(V) string) string { return assoc.Format(a, format) }

// Key selection (the paper's Matlab-style sub-array notation).

// Selector picks a subset of keys.
type Selector = keys.Selector

// KeyRange selects the inclusive lexicographic interval [Lo, Hi].
type KeyRange = keys.Range

// KeyPrefix selects keys beginning with P.
type KeyPrefix = keys.Prefix

// AllKeys selects every key.
type AllKeys = keys.All

// ParseSelector parses D4M-flavoured selector strings like
// "Genre|A : Genre|Z", "Writer|*", or ":".
func ParseSelector(expr string) (Selector, error) { return keys.Parse(expr) }

// Operator pairs (⊕.⊗) and their property analysis.

// Ops bundles an operator pair with its identities.
type Ops[V any] = semiring.Ops[V]

// Report is the Theorem II.1 condition analysis of an operator pair.
type Report = semiring.Report

// Condition is one analysed algebraic law.
type Condition = semiring.Condition

// The seven operator pairs of Figures 3 and 5.
var (
	PlusTimes = semiring.PlusTimes
	MaxTimes  = semiring.MaxTimes
	MinTimes  = semiring.MinTimes
	MaxPlus   = semiring.MaxPlus
	MinPlus   = semiring.MinPlus
	MaxMin    = semiring.MaxMin
	MinMax    = semiring.MinMax
)

// Non-examples and further algebras.
var (
	MaxPlusAtZero = semiring.MaxPlusAtZero
	StringMaxMin  = semiring.StringMaxMin
	BoolOrAnd     = semiring.BoolOrAnd
	IntRing       = semiring.IntRing
	NatPlusTimes  = semiring.NatPlusTimes
	ZMod          = semiring.ZMod
)

// PowerSet is the ∪.∩ pair over subsets of the universe (a non-trivial
// Boolean algebra — a Theorem II.1 non-example in general, usable on
// structured data per Section III).
func PowerSet(universe Set) Ops[Set] { return semiring.PowerSet(universe) }

// Check analyses an operator pair over a sample of domain values.
func Check[V any](o Ops[V], sample []V, format func(V) string) Report {
	return semiring.Check(o, sample, format)
}

// Figure3Pairs returns the seven pairs in the paper's presentation order.
func Figure3Pairs() []Ops[float64] { return semiring.Figure3Pairs() }

// LookupSemiring resolves a registered float64 pair by name ("+.*",
// "max.min", …).
func LookupSemiring(name string) (semiring.Entry, bool) { return semiring.Lookup(name) }

// ClassifyAlgebras regenerates the Section III compliance table.
func ClassifyAlgebras() []semiring.ClassRow { return semiring.Classify() }

// Graph layer.

// Graph is a finite directed multigraph.
type Graph = graph.Graph

// Edge is one directed edge (Key, Src, Dst).
type Edge = graph.Edge

// Weights chooses incidence-array entry values per edge.
type Weights[V any] = graph.Weights[V]

// Violation demonstrates a Theorem II.1 failure on a gadget graph.
type Violation[V any] = graph.Violation[V]

// NewGraph validates and builds a Graph.
func NewGraph(edges []Edge) (*Graph, error) { return graph.New(edges) }

// Incidence extracts the source/target incidence arrays of g
// (Definition I.4).
func Incidence[V any](g *Graph, ops Ops[V], w Weights[V]) (eout, ein *Array[V], err error) {
	return graph.Incidence(g, ops, w)
}

// Adjacency constructs A = Eoutᵀ ⊕.⊗ Ein with the sparse kernel.
func Adjacency[V any](eout, ein *Array[V], ops Ops[V], opt MulOptions) (*Array[V], error) {
	return graph.Adjacency(eout, ein, ops, opt)
}

// ReverseAdjacency constructs Einᵀ ⊕.⊗ Eout (Corollary III.1: the
// adjacency array of the reverse graph).
func ReverseAdjacency[V any](eout, ein *Array[V], ops Ops[V], opt MulOptions) (*Array[V], error) {
	return graph.ReverseAdjacency(eout, ein, ops, opt)
}

// BuildAdjacency runs incidence extraction plus construction in one call.
func BuildAdjacency[V any](g *Graph, ops Ops[V], w Weights[V], opt MulOptions) (a, eout, ein *Array[V], err error) {
	return graph.BuildAdjacency(g, ops, w, opt)
}

// IsAdjacencyOf validates Definition I.5: a is an adjacency array of g.
func IsAdjacencyOf[V any](a *Array[V], g *Graph, isZero func(V) bool) error {
	return graph.IsAdjacencyOf(a, g, isZero)
}

// VerifyConstruction checks the theorem's forward direction on g.
func VerifyConstruction[V any](g *Graph, ops Ops[V], w Weights[V]) error {
	return graph.VerifyConstruction(g, ops, w)
}

// FindViolation demonstrates the converse: any condition failure on the
// sample yields a gadget graph whose product is not an adjacency array.
func FindViolation[V any](ops Ops[V], sample []V) *Violation[V] {
	return graph.FindViolation(ops, sample)
}

// End-to-end pipeline.

// BuildRequest configures the construction service.
type BuildRequest = core.Request

// BuildResult is the service outcome.
type BuildResult = core.Result

// BuildBackend selects the construction engine.
type BuildBackend = core.Backend

// BackendDense is the one construction engine other than the default
// (the zero BuildBackend: the sparse engine, parallel when
// BuildRequest.Workers says so): the literal Definition I.3 oracle.
const BackendDense = core.BackendDense

// Build runs the end-to-end construction pipeline: semiring resolution,
// Theorem II.1 condition check (with gadget counterexample on failure),
// construction on the selected backend, optional validation.
func Build(req BuildRequest) (*BuildResult, error) { return core.Build(req) }

// Incremental maintenance (streaming ingest). There is one way in: an
// AdjacencyStore, opened with OpenAdjacencyStore (or behind an Ingest,
// which batches edges into one).

// StreamEdge is one ingested edge for a maintained adjacency store.
// Weight presence is explicit (HasOut/HasIn); an unset side ingests as
// the algebra's One — the unweighted convention.
type StreamEdge[V any] = stream.Edge[V]

// WeightedStreamEdge builds a StreamEdge with both incidence values
// explicitly present.
func WeightedStreamEdge[V any](key, src, dst string, out, in V) StreamEdge[V] {
	return stream.Weighted(key, src, dst, out, in)
}

// AdjacencySnapshot is one shard's immutable read view, as
// AdjacencyStoreSnapshot.Shards holds it: the adjacency array and
// counters as fields, the key-ordered incidence arrays Eout and Ein of
// its epoch through Logs(), built on first request.
type AdjacencySnapshot[V any] = stream.Snapshot[V]

// AdjacencyPointSnapshot is one shard pinned for point reads — At(src,
// dst) and Row(src, yield), nothing else — by AdjacencyStore.OwnerSnapshot
// or PointPin: it answers from the folded adjacency ⊕ the log's unfolded
// suffix, bit-identical to the fold it does not run, so a read-your-write
// costs O(batch) instead of a fold of the shard.
type AdjacencyPointSnapshot[V any] = stream.PointSnapshot[V]

// StreamStats summarizes one shard's counters, as
// AdjacencyStoreStats.PerShard holds them.
type StreamStats = stream.Stats

// The ingest store: N ≥ 1 shards (route-by-hash scatter, scatter-gather
// snapshots), in memory or on a directory (see stream.Store).

// AdjacencyStore maintains A = Eoutᵀ ⊕.⊗ Ein under continuous edge
// ingest: an appended batch applies via the delta identity
// A ⊕= Eout[K′,:]ᵀ ⊕.⊗ Ein[K′,:] instead of a full rebuild, at O(batch)
// whether or not it introduces vertices, and a whole-array read
// (Snapshot) or a checkpoint folds what is pending; every cell is the
// batch construction's left fold over its edges, for any ⊕ whose Zero
// is a ⊕-identity. It hash-partitions the vertex space across
// goroutine-shards, each owning its own maintained view and — opened on
// a directory — its own write-ahead log and checkpoints, so concurrent
// appends to different shards never contend. Snapshot pins one
// consistent epoch per shard and concatenates the per-shard adjacencies
// — bit-identical to the one-shard construction because shards own
// disjoint adjacency rows, which the gather checks. PointPin pins every
// shard and OwnerSnapshot the one owning a source, neither gathering and
// each folding only past a threshold. One shard is shards = 1, not
// another type.
type AdjacencyStore[V any] = stream.Store[V]

// AdjacencyStoreSnapshot is an immutable scatter-gather read view
// pinned at one epoch vector.
type AdjacencyStoreSnapshot[V any] = stream.StoreSnapshot[V]

// AdjacencyStoreStats aggregates per-shard view counters.
type AdjacencyStoreStats = stream.StoreStats

// DurableStreamOptions tunes the durable side of a store opened on a
// directory (fsync policy, segment size, checkpoint cadence); such a
// store holds float64 values.
type DurableStreamOptions = stream.DurableOptions

// OpenAdjacencyStore opens a store: dir "" keeps it in memory, anything
// else recovers from (or creates) that directory. shards 0 or 1 is one
// shard, < 0 selects GOMAXPROCS; a directory that already holds a store
// refuses an explicit count other than its own.
func OpenAdjacencyStore[V any](dir string, ops Ops[V], shards int, dopt DurableStreamOptions) (*AdjacencyStore[V], error) {
	return stream.Open(dir, ops, shards, dopt)
}

// Ingest appends edge triples to an AdjacencyStore as it is handed them,
// in batches of at most BatchSize — the ingest-side counterpart of Build.
// Add is safe for concurrent use.
type Ingest = core.Ingest

// IngestOptions configures an Ingest.
type IngestOptions = core.IngestOptions

// NewIngest resolves the operator pair, checks the Theorem II.1
// conditions, and opens the AdjacencyStore the Ingest appends to.
func NewIngest(opt IngestOptions) (*Ingest, error) { return core.NewIngest(opt) }

// Provenance multiplication (D4M CatKeyMul analogue).

// MulKeys computes the provenance product: entry (k1,k2) is the set of
// shared keys contributing to A ⊕.⊗ B at (k1,k2).
func MulKeys[V, W any](a *Array[V], b *Array[W]) (*Array[Set], error) {
	return assoc.MulKeys(a, b)
}

// CorrelateKeys computes AᵀB in provenance form: for adjacency
// construction, entry (a,b) is the set of edge keys connecting a to b.
func CorrelateKeys[V, W any](a *Array[V], b *Array[W]) (*Array[Set], error) {
	return assoc.CorrelateKeys(a, b)
}

// Graph algorithms on constructed adjacency arrays.
//
// One engine, two call shapes. CSRGraph runs every algorithm on
// integer-id CSR kernels that push along out-edges; the package-level
// functions below are its one-shot form — build a CSRGraph from the
// array, call the method of the same name, drop it. Use them for one
// question about one array. Hold a CSRGraph whenever a second query
// meets the same array: the build is O(nnz), and the weighted kernels'
// values and PageRank's 1/outdeg vector are laid on once per graph
// rather than once per call.

// CSRGraph is the engine the algorithms run on: an adjacency array
// embedded in the square union vertex space, integer vertex ids inside,
// string keys only at the API boundary. Its methods (BFSLevels, SSSP,
// WidestPath, Components, TriangleCount, PageRank) are what the
// package-level functions call.
type CSRGraph = algo.Graph

// NewCSRGraph builds a CSRGraph from an adjacency array, keeping stored
// values as edge weights.
func NewCSRGraph(a *Array[float64]) (*CSRGraph, error) { return algo.FromArray(a) }

// NewCSRGraphPattern builds a CSRGraph from any array's pattern with
// weight 1 per stored entry.
func NewCSRGraphPattern[V any](a *Array[V]) (*CSRGraph, error) { return algo.FromPattern(a) }

// BFSLevels computes breadth-first hop counts from source over the
// array's pattern (∨.∧ frontier expansion).
func BFSLevels[V any](a *Array[V], source string) (map[string]int, error) {
	return algo.BFSLevels(a, source)
}

// SSSP computes single-source shortest-path distances under min.+
// (Bellman–Ford relaxation to fixpoint).
func SSSP(a *Array[float64], source string) (map[string]float64, error) {
	return algo.SSSP(a, source)
}

// WidestPath computes maximum bottleneck widths from source under
// max.min.
func WidestPath(a *Array[float64], source string) (map[string]float64, error) {
	return algo.WidestPath(a, source)
}

// Components labels each vertex with the smallest key in its weakly
// connected component (min-label propagation).
func Components[V any](a *Array[V]) (map[string]string, error) {
	return algo.Components(a)
}

// TriangleCount counts triangles on three distinct vertices of a
// symmetric adjacency pattern via (L ⊕.⊗ L) ∘ L under +.×, L = tril(A, −1).
func TriangleCount[V any](a *Array[V]) (int, error) { return algo.TriangleCount(a) }

// TransitiveClosure computes the ≥1-hop reachability pattern by
// repeated Boolean squaring.
func TransitiveClosure[V any](a *Array[V]) (*Array[bool], error) {
	return algo.TransitiveClosure(a)
}

// PageRank computes damped PageRank over the array's pattern.
func PageRank[V any](a *Array[V], damping, tol float64, maxIter int) (map[string]float64, int, error) {
	return algo.PageRank(a, damping, tol, maxIter)
}

// OutDegrees and InDegrees fold entry counts per row/column key.
func OutDegrees[V any](a *Array[V]) map[string]float64 { return algo.OutDegrees(a) }

// InDegrees is OutDegrees of the transpose.
func InDegrees[V any](a *Array[V]) map[string]float64 { return algo.InDegrees(a) }

// Cross-backend conformance (the verification subsystem).

// ConformanceDivergence is one disagreement between construction paths,
// pinned to a shrunk reproducing instance.
type ConformanceDivergence = conformance.Divergence

// SelfCheck runs the cross-backend conformance harness: `instances`
// adversarial random instances per registry operator pair, each fed
// through every construction path — ConformancePaths() lists them: the
// merge reference, the engine in parallel, the unit-row fold serial and
// parallel, and the incremental stream plain, goroutine-sharded,
// recovered from its WAL and read point by point — and
// compared against the explicit Mul(Eoutᵀ, Ein) and, where the Theorem
// II.1 conditions license it, the dense Definition I.3 oracle.
// The first divergence is returned as a *ConformanceDivergence error
// with a minimized counterexample; nil means every path agreed on every
// instance. A deployment can call this at startup or from its own test
// suite.
func SelfCheck(seed int64, instances int) error { return conformance.SelfCheck(seed, instances) }

// ConformancePaths lists the construction-path names the harness
// covers.
func ConformancePaths() []string { return conformance.PathNames() }

// Values.

// Set is a finite string set, the value domain of the ∪.∩ algebra.
type Set = value.Set

// NewSet builds a canonical Set.
func NewSet(words ...string) Set { return value.NewSet(words...) }

// FormatFloat renders floats the way the paper's figures do.
var FormatFloat = value.FormatFloat

// ParseFloat parses FormatFloat's output (including ±Inf).
var ParseFloat = value.ParseFloat
