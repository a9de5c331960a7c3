// Package shard implements the incidence-parallel decomposition of
// adjacency construction used by D4M-style parallel ingest: the edge
// set K is partitioned into P shards (stand-ins for the MPI ranks /
// database tablets of the paper's deployment environment), each shard
// computes the partial product over its edge subset,
//
//	A_p = Eout[K_p, :]ᵀ ⊕.⊗ Ein[K_p, :]
//
// and the partials are ⊕-merged into the final adjacency array.
//
// Unlike the row-blocked SpGEMM in internal/sparse — which partitions
// OUTPUT rows and preserves the per-cell fold order exactly — the
// shard decomposition partitions the INPUT reduction, so the per-cell
// ⊕ fold is re-associated: (v₁ ⊕ v₂) ⊕ (v₃ ⊕ v₄) instead of
// ((v₁ ⊕ v₂) ⊕ v₃) ⊕ v₄. The merge order is deterministic (shards are
// edge-key-contiguous and merged in ascending order), so the result is
// reproducible run-to-run; it equals the sequential Definition I.3
// fold exactly when ⊕ is associative — which every named pair in the
// registry is, but the paper's theorem does not require. Construct
// verifies this hypothesis when Options.CheckAssociative is set, and
// the package tests demonstrate the divergence for a non-associative ⊕.
//
// The partial-product-and-merge machinery itself lives in Engine and is
// shared with internal/stream, which drives the same identity
// incrementally: an appended edge batch K′ is exactly one shard.
package shard

import (
	"fmt"
	"runtime"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/parallel"
	"adjarray/internal/semiring"
)

// Options tunes the sharded construction.
type Options struct {
	// Shards is the number of edge-key partitions; < 1 selects
	// GOMAXPROCS (one shard per available core).
	Shards int
	// Workers bounds concurrent shard evaluation; < 1 selects
	// GOMAXPROCS. Normalized with internal/parallel.Workers, so it is
	// also clamped to the shard count.
	Workers int
	// CheckAssociative, when set, samples ⊕ for associativity over the
	// incidence values before constructing and fails fast if the
	// re-associated merge could diverge from the sequential fold.
	CheckAssociative bool
}

// Construct computes A = Eoutᵀ ⊕.⊗ Ein by edge-sharded partial
// products. Eout and Ein must share their edge-key row sets (as
// incidence arrays from one graph always do).
func Construct[V any](eout, ein *assoc.Array[V], ops semiring.Ops[V], opt Options) (*assoc.Array[V], error) {
	if !eout.RowKeys().Equal(ein.RowKeys()) {
		return nil, fmt.Errorf("shard: incidence arrays disagree on edge keys")
	}
	if opt.Shards < 1 {
		opt.Shards = runtime.GOMAXPROCS(0)
	}
	eng := Engine[V]{Ops: ops} // serial partial products: shards already run concurrently
	if opt.CheckAssociative {
		if err := eng.CheckAssociative(eout, ein); err != nil {
			return nil, fmt.Errorf("%w — use the row-blocked kernel instead", err)
		}
	}
	edgeKeys := eout.RowKeys()
	n := edgeKeys.Len()
	if n == 0 {
		return assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	}
	shards := opt.Shards
	if shards > n {
		shards = n
	}
	workers := parallel.Workers(opt.Workers, shards)

	bounds := partition(n, shards)
	partials := make([]*assoc.Array[V], shards)
	errs := make([]error, shards)
	parallel.ForGrain(shards, workers, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			b := bounds[s]
			if b[0] >= b[1] {
				continue
			}
			sel := keys.Range{Lo: edgeKeys.Key(b[0]), Hi: edgeKeys.Key(b[1] - 1)}
			partials[s], errs[s] = eng.Partial(eout.SubRef(sel, nil), ein.SubRef(sel, nil))
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Deterministic ascending-shard ⊕-merge through the shared engine.
	// Every partial already spans the full output key space (SubRef
	// keeps all columns), so the merges run on the aligned fast path;
	// in-place is safe because the accumulator is a locally owned
	// partial.
	var acc *assoc.Array[V]
	for _, p := range partials {
		var err error
		acc, err = eng.Merge(acc, p, true)
		if err != nil {
			return nil, err
		}
	}
	rows := eout.ColKeys()
	cols := ein.ColKeys()
	if acc == nil {
		acc, _ = assoc.FromTriples[V](nil, nil).Reindex(rows, cols)
		return acc, nil
	}
	if !acc.RowKeys().Equal(rows) || !acc.ColKeys().Equal(cols) {
		full, err := acc.EmbedInto(rows, cols)
		if err != nil {
			return nil, fmt.Errorf("shard: partial embed: %w", err)
		}
		acc = full
	}
	return acc, nil
}

// partition splits [0, n) into `shards` contiguous ranges so the shard
// merge order equals the ascending-key order.
func partition(n, shards int) [][2]int {
	bounds := make([][2]int, shards)
	per := (n + shards - 1) / shards
	for s := range bounds {
		lo := s * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		bounds[s] = [2]int{lo, hi}
	}
	return bounds
}

// Plan describes how Construct would partition a given edge-key set —
// exposed for the CLI and tests.
func Plan(edgeKeys *keys.Set, shards int) []string {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := edgeKeys.Len()
	if shards > n {
		shards = n
	}
	if n == 0 {
		return nil
	}
	var out []string
	for s, b := range partition(n, shards) {
		if b[0] >= b[1] {
			break
		}
		out = append(out, fmt.Sprintf("shard %d: [%s … %s] (%d edges)",
			s, edgeKeys.Key(b[0]), edgeKeys.Key(b[1]-1), b[1]-b[0]))
	}
	return out
}
