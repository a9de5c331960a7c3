package core

import (
	"fmt"

	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
)

// Ingest is the ingest-side counterpart of Build: where Build constructs
// an adjacency array once from complete incidence arrays, Ingest appends
// edge triples as they arrive, in batches, to a maintained stream.Store —
// the paper's construction kept continuously up to date. It performs the
// same operator-pair resolution and Theorem II.1 condition analysis as
// Build, up front, so a pair that cannot guarantee an adjacency array is
// refused before any edge is accepted.
//
// Ingest holds no edge: Add appends what it is handed before it returns,
// and is as safe for concurrent use as the store's Append. The caller's
// own call order is the arrival order, so an explicitly keyed stream
// keeps the per-shard ascending-key discipline as long as its calls do.
//
// The store has Shards ≥ 1 shards: batches scatter by source-vertex hash
// across per-shard views (each with its own lock and, with DataDir set,
// its own WAL and checkpoints), and Snapshot gathers the per-shard
// adjacencies — a concatenation: shards own disjoint rows — into one
// read view pinned at a consistent epoch vector.
type Ingest struct {
	store *stream.Store[float64]
	size  int
}

// DefaultBatchSize is the batch an IngestOptions.BatchSize <= 0 selects.
const DefaultBatchSize = 512

// IngestOptions configures an Ingest.
type IngestOptions struct {
	// Semiring is the registry name of the operator pair, e.g. "+.*".
	Semiring string
	// BatchSize caps the store batches Add cuts what it is handed into;
	// <= 0 selects DefaultBatchSize. Larger batches amortize per-batch
	// costs (a WAL record; an fsync under wal.SyncEveryAppend).
	BatchSize int
	// Shards partitions the ingest across that many goroutine-shards
	// (route-by-hash on the source vertex): 0 or 1 is one shard, < 0
	// selects GOMAXPROCS. A DataDir that already holds a store refuses
	// an explicit count other than its own; < 0 adopts it.
	Shards int
	// SkipConditionCheck accepts operator pairs that fail the Theorem
	// II.1 conditions.
	SkipConditionCheck bool
	// DataDir, when set, makes the ingest durable: the store is
	// recovered from DataDir on open, every appended batch is written
	// ahead to the WAL there before it is acknowledged, and Close takes
	// a covering checkpoint.
	DataDir string
	// Durable tunes the durability layer when DataDir is set (fsync
	// policy, checkpoint cadence).
	Durable stream.DurableOptions
}

// NewIngest resolves the operator pair, runs the condition analysis, and
// opens the store the Ingest appends to.
func NewIngest(opt IngestOptions) (*Ingest, error) {
	entry, ok := semiring.Lookup(opt.Semiring)
	if !ok {
		return nil, fmt.Errorf("core: unknown operator pair %q (known: %v)", opt.Semiring, semiring.Names())
	}
	if !opt.SkipConditionCheck && !semiring.Check(entry.Ops, entry.Sample, value.FormatFloat).TheoremII1() {
		return nil, fmt.Errorf("core: %s cannot guarantee an adjacency array: conditions fail on the sampled domain", entry.Ops.Name)
	}
	size := opt.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	store, err := stream.Open(opt.DataDir, entry.Ops, opt.Shards, opt.Durable)
	if err != nil {
		return nil, err
	}
	return &Ingest{store: store, size: size}, nil
}

// Add appends edges to the store before it returns, cut into batches of
// at most BatchSize. Edge keys must arrive in strictly increasing order
// across the whole ingest (or be left empty for auto-assignment — don't
// mix the two). A batch a shard refuses (a key-discipline violation) is
// not ingested there — shards apply batches atomically, and the error
// names the shard — and Add returns its error without appending any
// edge past it.
func (in *Ingest) Add(edges ...stream.Edge[float64]) error {
	for len(edges) > 0 {
		n := min(len(edges), in.size)
		if err := in.store.Append(edges[:n]); err != nil {
			return err
		}
		edges = edges[n:]
	}
	return nil
}

// AppendBatch appends pre-batched edges to the store as one batch,
// whatever BatchSize — what a network ingest endpoint needs, whose
// request is already its batch. The usual key discipline applies across
// it and Add. When the durable store is read-only (storage failure) the
// error matches stream.ErrReadOnly.
func (in *Ingest) AppendBatch(edges []stream.Edge[float64]) error {
	return in.store.Append(edges)
}

// StorageHealth reports the storage-health aggregate (the worst shard)
// and the per-shard breakdown. In-memory ingests are always ok.
func (in *Ingest) StorageHealth() (stream.StorageHealth, []stream.StorageHealth) {
	return in.store.StorageHealth()
}

// Snapshot returns a consistent read view including every edge appended
// so far: per-shard epochs pinned as one vector (Epochs, with Epoch their
// sum) and the adjacency gathered at it, which no served read asks for.
// The merged incidence logs are built when Logs() asks.
func (in *Ingest) Snapshot() (stream.StoreSnapshot[float64], error) {
	return in.store.Snapshot()
}

// Store exposes the maintained store (Stats, Durability, Checkpoint, or
// direct Append of pre-batched edges).
func (in *Ingest) Store() *stream.Store[float64] { return in.store }

// Close takes a final covering checkpoint and releases the log(s) — both
// trivially nothing for an in-memory store. The first error is reported,
// but the log is closed regardless — a failed checkpoint leaves recovery
// to the previous checkpoint plus the (complete) WAL.
func (in *Ingest) Close() error {
	err := in.store.Checkpoint()
	if cerr := in.store.Close(); err == nil {
		err = cerr
	}
	return err
}
