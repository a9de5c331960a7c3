package conformance

import (
	"fmt"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/stream"
	"adjarray/internal/value"
)

// The metamorphic laws: identities the paper guarantees about adjacency
// construction that hold without knowing the expected output, so every
// random instance doubles as a test case. Each Check function returns
// nil when the law holds or does not apply to the pair/instance, and a
// descriptive error pinned to the first difference otherwise.

// CheckTransposeDuality asserts A(Eout,Ein)ᵀ = A(Ein,Eout) — swapping
// the incidence operands transposes the adjacency array, because entry
// (a,b) folds eout(k,a) ⊗ ein(k,b) over the same ascending k order on
// both sides. The law requires ⊗ commutative (Corollary III.1
// territory); it is skipped (nil) when ⊗ is not commutative on the
// instance's value closure.
func CheckTransposeDuality(inst Instance, entry semiring.Entry) error {
	ops := entry.Ops
	vals := valueClosure(ops, inst)
	for _, a := range vals {
		for _, b := range vals {
			if !ops.Equal(ops.Mul(a, b), ops.Mul(b, a)) {
				return nil // ⊗ not commutative here; the law does not apply
			}
		}
	}
	eout, ein := inst.Incidence()
	fwd, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		return fmt.Errorf("conformance: transpose duality: forward: %w", err)
	}
	rev, err := assoc.Correlate(ein, eout, ops, assoc.MulOptions{})
	if err != nil {
		return fmt.Errorf("conformance: transpose duality: reverse: %w", err)
	}
	if diff := assoc.Diff(fwd.Transpose(), rev, ops.Equal, value.FormatFloat); diff != "" {
		return fmt.Errorf("conformance: transpose duality violated for %s on %q: %s", entry.Name, inst.Name, diff)
	}
	return nil
}

// CheckDegreeSums asserts the counting invariants of unit-weight +.*
// construction (Lemma II.2's bookkeeping): each adjacency row sums to
// the out-degree of its vertex, each column to the in-degree, and the
// whole array to the edge count — every edge contributes exactly one
// 1 ⊗ 1 product to exactly one cell. The instance's weights are
// replaced by 1 so the law applies regardless of the generating arm.
func CheckDegreeSums(inst Instance) error {
	unit := Instance{Name: inst.Name, Edges: append([]Edge{}, inst.Edges...)}
	outDeg := map[string]float64{}
	inDeg := map[string]float64{}
	for i := range unit.Edges {
		unit.Edges[i].Out, unit.Edges[i].In = 1, 1
		outDeg[unit.Edges[i].Src]++
		inDeg[unit.Edges[i].Dst]++
	}
	ops := semiring.PlusTimes()
	eout, ein := unit.Incidence()
	a, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		return fmt.Errorf("conformance: degree sums: %w", err)
	}
	rowSum := assoc.ReduceRows(a, ops.Add)
	for v, want := range outDeg {
		if got := rowSum[v]; got != want {
			return fmt.Errorf("conformance: degree sums on %q: row %q sums to %v, out-degree is %v", inst.Name, v, got, want)
		}
	}
	colSum := assoc.ReduceRows(a.Transpose(), ops.Add)
	for v, want := range inDeg {
		if got := colSum[v]; got != want {
			return fmt.Errorf("conformance: degree sums on %q: col %q sums to %v, in-degree is %v", inst.Name, v, got, want)
		}
	}
	total, _ := assoc.ReduceAll(a, ops.Add)
	if want := float64(len(unit.Edges)); total != want {
		return fmt.Errorf("conformance: degree sums on %q: total %v, edges %v", inst.Name, total, want)
	}
	return nil
}

// CheckSubArraySelection asserts that sub-array selection commutes with
// construction: A(Eout(:,S1), Ein(:,S2)) = A(Eout,Ein)(S1,S2) — the
// paper's Matlab-style sub-key notation applied before or after the
// multiply yields the same array, because restricting the vertex
// columns changes neither the edge-key fold order nor any surviving
// contribution. Holds for every pair, compliant or not.
func CheckSubArraySelection(inst Instance, entry semiring.Entry, rowSel, colSel keys.Selector) error {
	ops := entry.Ops
	eout, ein := inst.Incidence()
	full, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		return fmt.Errorf("conformance: sub-array selection: full: %w", err)
	}
	after := full.SubRef(rowSel, colSel)
	before, err := assoc.Correlate(eout.SubRef(keys.All{}, rowSel), ein.SubRef(keys.All{}, colSel), ops, assoc.MulOptions{})
	if err != nil {
		return fmt.Errorf("conformance: sub-array selection: restricted: %w", err)
	}
	if diff := assoc.Diff(after, before, ops.Equal, value.FormatFloat); diff != "" {
		return fmt.Errorf("conformance: sub-array selection violated for %s on %q: %s", entry.Name, inst.Name, diff)
	}
	return nil
}

// CheckBatchEqualsIncremental asserts that replaying the instance
// through the incremental stream path — using the given batch split
// points (nil for the instance's own) — equals the one-shot batch
// construction. Skipped (nil) when ⊕ is not associative on the
// instance's value closure, the hypothesis the delta identity needs.
func CheckBatchEqualsIncremental(inst Instance, entry semiring.Entry, splits []int) error {
	ops := entry.Ops
	if !deltaCompatibleOn(ops, valueClosure(ops, inst)) {
		return nil
	}
	if splits != nil {
		inst.Splits = clampSplits(splits, len(inst.Edges))
	}
	eout, ein := inst.Incidence()
	want, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		return fmt.Errorf("conformance: batch==incremental: batch: %w", err)
	}
	got, err := buildStream(eout, ein, ops, inst)
	if err != nil {
		return fmt.Errorf("conformance: batch==incremental: stream: %w", err)
	}
	if diff := assoc.Diff(want, got, ops.Equal, value.FormatFloat); diff != "" {
		return fmt.Errorf("conformance: batch==incremental violated for %s on %q (splits %v): %s",
			entry.Name, inst.Name, inst.Splits, diff)
	}
	return nil
}

// CheckShardedBatchEqualsIncremental extends the batch==incremental law
// across the shard dimension: replaying the instance through an N-shard
// scatter-gather view — any N ≥ 1, any split points — must equal the
// one-shot batch construction. The sharding adds a second re-association
// axis on top of batching (edges of one source fold inside their shard,
// the shards ⊕-merge at gather time), but because shards own disjoint
// source-vertex row sets the merge never combines two values into one
// cell, so the law needs exactly the same hypothesis as the batched one:
// ⊕ associative on the instance's value closure. Skipped (nil)
// otherwise.
func CheckShardedBatchEqualsIncremental(inst Instance, entry semiring.Entry, shards int, splits []int) error {
	ops := entry.Ops
	if !deltaCompatibleOn(ops, valueClosure(ops, inst)) {
		return nil
	}
	if splits != nil {
		inst.Splits = clampSplits(splits, len(inst.Edges))
	}
	eout, ein := inst.Incidence()
	want, err := assoc.Correlate(eout, ein, ops, assoc.MulOptions{})
	if err != nil {
		return fmt.Errorf("conformance: sharded batch==incremental: batch: %w", err)
	}
	got, err := replayStore("", ops, inst, shards, stream.Options{})
	if err != nil {
		return fmt.Errorf("conformance: sharded batch==incremental: %d shards: %w", shards, err)
	}
	if diff := assoc.Diff(want, got, ops.Equal, value.FormatFloat); diff != "" {
		return fmt.Errorf("conformance: sharded batch==incremental violated for %s on %q (%d shards, splits %v): %s",
			entry.Name, inst.Name, shards, inst.Splits, diff)
	}
	return nil
}
