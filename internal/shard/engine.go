package shard

import (
	"fmt"

	"adjarray/internal/assoc"
	"adjarray/internal/semiring"
)

// Engine is the partial-product-and-⊕-merge machinery shared by the two
// drivers of edge-dimension decomposition:
//
//   - offline sharded construction (Construct in this package): the edge
//     set is partitioned up front, partials are computed concurrently and
//     ⊕-merged in ascending shard order;
//   - online delta application (internal/stream): edge batches arrive
//     over time, each batch is one partial, and the running adjacency is
//     the accumulator — A ⊕= Eout[K′,:]ᵀ ⊕.⊗ Ein[K′,:].
//
// Both are sound under the same hypothesis: the per-cell ⊕ fold is
// re-associated (batch boundaries group contributions), so the result
// equals the sequential Definition I.3 fold exactly when ⊕ is
// associative on the data. CheckAssociative verifies that hypothesis by
// sampling; the fold ORDER is preserved in both drivers (shards /
// batches are merged in ascending edge-key order), so commutativity is
// not required.
type Engine[V any] struct {
	// Ops is the operator pair ⊕.⊗.
	Ops semiring.Ops[V]
	// Mul tunes each partial-product multiplication.
	Mul assoc.MulOptions
}

// Partial computes one edge subset's contribution,
// Eout[K′,:]ᵀ ⊕.⊗ Ein[K′,:] — a full-shape adjacency array whose entries
// cover only the subset's edges.
func (e Engine[V]) Partial(eout, ein *assoc.Array[V]) (*assoc.Array[V], error) {
	if !eout.RowKeys().Equal(ein.RowKeys()) {
		return nil, fmt.Errorf("shard: partial incidence arrays disagree on edge keys")
	}
	return assoc.Correlate(eout, ein, e.Ops, e.Mul)
}

// Merge ⊕-folds a partial into the accumulator, accumulator entries on
// the left (they hold the earlier edge keys). A nil accumulator starts
// one. With inPlace the accumulator's storage may be mutated and
// returned (see assoc.AddInto); the caller must own it exclusively. When
// the engine's Mul options request parallelism, the ⊕-merge itself also
// runs span-parallel — the partial products and the accumulator folds
// scale together.
func (e Engine[V]) Merge(acc, partial *assoc.Array[V], inPlace bool) (*assoc.Array[V], error) {
	if partial == nil {
		return acc, nil
	}
	if acc == nil {
		return partial, nil
	}
	return assoc.AddInto(acc, partial, e.Ops, inPlace, e.Mul.Workers)
}

// CheckAssociative samples ⊕ over triples of values stored in the given
// arrays and reports the first associativity violation — the hypothesis
// under which the re-associated merge equals the sequential fold.
func (e Engine[V]) CheckAssociative(arrays ...*assoc.Array[V]) error {
	return e.CheckAssociativeValues(sampleValues(arrays, 12))
}

// CheckAssociativeValues is CheckAssociative over an explicit value
// sample — the entry point for callers that hold raw batch values
// (internal/stream's fused ingest path) rather than arrays.
//
// Besides associativity it verifies that Zero is a two-sided ⊕-identity
// on the sample: partial products prune cells that fold to the
// algebra's Zero, and the merge treats the resulting absence as
// "contributes nothing" — sound only when v ⊕ 0 = 0 ⊕ v = v. An
// algebra with zero-divisor products and a non-identity Zero (max.+
// anchored at 0 over signed data, where 2 ⊗ −2 = 0 but
// max(−1, 0) ≠ −1) passes a pure associativity probe yet diverges;
// the cross-backend conformance harness caught exactly that gap.
func (e Engine[V]) CheckAssociativeValues(vals []V) error {
	if len(vals) > 12 {
		vals = vals[:12]
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				left := e.Ops.Add(e.Ops.Add(a, b), c)
				right := e.Ops.Add(a, e.Ops.Add(b, c))
				if !e.Ops.Equal(left, right) {
					return fmt.Errorf("shard: ⊕ is not associative on the data (%v,%v,%v); "+
						"re-associated merge would diverge from the sequential fold", a, b, c)
				}
			}
		}
	}
	for _, a := range vals {
		if !e.Ops.Equal(e.Ops.Add(a, e.Ops.Zero), a) || !e.Ops.Equal(e.Ops.Add(e.Ops.Zero, a), a) {
			return fmt.Errorf("shard: 0 is not a ⊕-identity on the data (%v); "+
				"pruned partial-product cells would diverge from the sequential fold", a)
		}
	}
	return nil
}

// sampleValues gathers up to max distinct stored values across the
// arrays — the values ⊕ actually folds during a merge.
func sampleValues[V any](arrays []*assoc.Array[V], max int) []V {
	var vals []V
	for _, a := range arrays {
		if a == nil {
			continue
		}
		a.Iterate(func(_, _ string, v V) {
			if len(vals) < max {
				vals = append(vals, v)
			}
		})
	}
	return vals
}
