package core

import (
	"fmt"

	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
)

// Ingest is the ingest-side counterpart of Build: where Build constructs
// an adjacency array once from complete incidence arrays, Ingest
// accumulates edge triples as they arrive and feeds them in batches to a
// maintained stream.Store — the paper's construction kept continuously
// up to date. It performs the same operator-pair resolution and Theorem
// II.1 condition analysis as Build, up front, so a pair that cannot
// guarantee an adjacency array is refused before any edge is accepted.
//
// The store has Shards ≥ 1 shards: batches scatter by source-vertex hash
// across per-shard views (each with its own lock and, with DataDir set,
// its own WAL and checkpoints), and Snapshot gathers the per-shard
// adjacencies — a concatenation: shards own disjoint rows — into one
// read view pinned at a consistent epoch vector.
type Ingest struct {
	store *stream.Store[float64]
	batch []stream.Edge[float64]
	size  int
	ops   semiring.Ops[float64]
	rep   semiring.Report
}

// IngestOptions configures an Ingest accumulator.
type IngestOptions struct {
	// Semiring is the registry name of the operator pair, e.g. "+.*".
	Semiring string
	// BatchSize is how many edges buffer before an automatic flush into
	// the store; <= 0 selects 512. Larger batches amortize per-batch
	// costs, smaller ones shrink the window in which Add-ed edges are
	// not yet visible to Snapshot.
	BatchSize int
	// Shards partitions the ingest across that many goroutine-shards
	// (route-by-hash on the source vertex): 0 or 1 is one shard, < 0
	// selects GOMAXPROCS. A DataDir that already holds a store refuses
	// an explicit count other than its own; < 0 adopts it.
	Shards int
	// Stream tunes the per-shard views (compaction, associativity
	// guard).
	Stream stream.Options
	// SkipConditionCheck accepts operator pairs that fail the Theorem
	// II.1 conditions (the Report is still available via Report()).
	SkipConditionCheck bool
	// DataDir, when set, makes the ingest durable: the store is
	// recovered from DataDir on open, every flushed batch is written
	// ahead to the WAL there before it is acknowledged, and Close takes
	// a covering checkpoint.
	DataDir string
	// Durable tunes the durability layer when DataDir is set (fsync
	// policy, checkpoint cadence, codec).
	Durable stream.DurableOptions[float64]
}

// NewIngest resolves the operator pair, runs the condition analysis, and
// opens the store behind an empty accumulator.
func NewIngest(opt IngestOptions) (*Ingest, error) {
	entry, ok := semiring.Lookup(opt.Semiring)
	if !ok {
		return nil, fmt.Errorf("core: unknown operator pair %q (known: %v)", opt.Semiring, semiring.Names())
	}
	report := semiring.Check(entry.Ops, entry.Sample, value.FormatFloat)
	if !report.TheoremII1() && !opt.SkipConditionCheck {
		return nil, fmt.Errorf("core: %s cannot guarantee an adjacency array: conditions fail on the sampled domain", entry.Ops.Name)
	}
	size := opt.BatchSize
	if size <= 0 {
		size = 512
	}
	store, err := stream.Open(opt.DataDir, entry.Ops, opt.Shards, opt.Stream, opt.Durable)
	if err != nil {
		return nil, err
	}
	return &Ingest{
		store: store,
		batch: make([]stream.Edge[float64], 0, size),
		size:  size,
		ops:   entry.Ops,
		rep:   report,
	}, nil
}

// Add buffers one edge; a full buffer flushes into the store. Edge keys
// must arrive in strictly increasing order across the whole ingest (or
// be left empty for auto-assignment — don't mix the two).
func (in *Ingest) Add(e stream.Edge[float64]) error {
	in.batch = append(in.batch, e)
	if len(in.batch) >= in.size {
		return in.Flush()
	}
	return nil
}

// Flush appends the buffered edges to the store as one delta batch. A
// batch a shard rejects (key-discipline violation, failed associativity
// guard) is DROPPED with the returned error — shards apply batches
// atomically, so none of its edges were ingested there, and keeping them
// buffered would wedge every subsequent Add on the same failure. (A
// multi-shard flush is atomic per shard: the error names the shard that
// rejected its sub-batch.)
func (in *Ingest) Flush() error {
	err := in.store.Append(in.batch)
	in.batch = in.batch[:0]
	return err
}

// AppendBatch appends pre-batched edges directly to the store,
// bypassing the Add/Flush accumulator. Unlike Add/Flush it is safe for
// concurrent use — the shards serialize internally — which is what a
// network ingest endpoint needs. Edges buffered in the accumulator are
// unaffected; the usual key discipline applies across both paths. When
// the durable store is read-only (storage failure) the error matches
// stream.ErrReadOnly.
func (in *Ingest) AppendBatch(edges []stream.Edge[float64]) error {
	return in.store.Append(edges)
}

// StorageHealth reports the storage-health aggregate (the worst shard)
// and the per-shard breakdown. In-memory ingests are always ok.
func (in *Ingest) StorageHealth() (stream.StorageHealth, []stream.StorageHealth) {
	return in.store.StorageHealth()
}

// Snapshot flushes and returns a consistent read view including every
// edge Add-ed so far: per-shard epochs pinned as one vector (Epochs,
// with Epoch their sum) and the adjacency gathered at it. The merged
// incidence logs are computed only when Logs() asks for them.
func (in *Ingest) Snapshot() (stream.StoreSnapshot[float64], error) {
	if err := in.Flush(); err != nil {
		return stream.StoreSnapshot[float64]{}, err
	}
	return in.store.Snapshot()
}

// Store exposes the maintained store (Stats, Compact, Durability, or
// direct Append of pre-batched edges). Edges still buffered in the
// accumulator are not yet in it; call Flush first when that matters.
func (in *Ingest) Store() *stream.Store[float64] { return in.store }

// Close flushes buffered edges, takes a final covering checkpoint, and
// releases the log(s) — all trivially nothing for an in-memory store.
// The first error is reported, but the log is closed regardless — a
// failed checkpoint leaves recovery to the previous checkpoint plus the
// (complete) WAL.
func (in *Ingest) Close() error {
	err := in.Flush()
	if cerr := in.store.Checkpoint(); err == nil {
		err = cerr
	}
	if cerr := in.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Buffered reports how many Add-ed edges await the next flush.
func (in *Ingest) Buffered() int { return len(in.batch) }

// Ops returns the resolved operator pair.
func (in *Ingest) Ops() semiring.Ops[float64] { return in.ops }

// Report returns the Theorem II.1 condition analysis of the pair.
func (in *Ingest) Report() semiring.Report { return in.rep }
