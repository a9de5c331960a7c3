package conformance

import (
	"fmt"
	"math"
	"os"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
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

// valueClosure gathers the distinct values the construction combines
// for this instance: each edge's incidence entries plus their ⊗-product,
// capped for the quadratic commutativity probe.
func valueClosure(ops semiring.Ops[float64], inst Instance) []float64 {
	const maxVals = 12
	var vals []float64
	add := func(v float64) {
		for _, s := range vals {
			if value.Float64Equal(s, v) {
				return
			}
		}
		if len(vals) < maxVals {
			vals = append(vals, v)
		}
	}
	for _, e := range inst.Edges {
		add(e.Out)
		add(e.In)
		add(ops.Mul(e.Out, e.In))
		if len(vals) >= maxVals {
			break
		}
	}
	return vals
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
// points (nil for the instance's own), a whole-array read between
// batches — equals the one-shot batch construction, bit for bit and for
// any ⊕. Skipped (nil) only when Zero is not a ⊕-identity on the
// instance's products (zeroIsIdentityOn).
func CheckBatchEqualsIncremental(inst Instance, entry semiring.Entry, splits []int) error {
	ops := entry.Ops
	if !zeroIsIdentityOn(ops, inst) {
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
	if diff := assoc.Diff(want, got, sameBits, value.FormatFloat); diff != "" {
		return fmt.Errorf("conformance: batch==incremental violated for %s on %q (splits %v): %s",
			entry.Name, inst.Name, inst.Splits, diff)
	}
	return nil
}

// CheckShardedBatchEqualsIncremental extends the batch==incremental law
// across the shard dimension: replaying the instance through an N-shard
// scatter-gather view — any N ≥ 1, any split points, between the
// batches a whole-array read, a point read or none, and at up to three
// shards through a checkpoint, a crash and a reopen — must equal the
// one-shot batch construction bit for bit. Edges of one source fold inside their
// shard, and shards own disjoint source-vertex row sets, so the gather
// never combines two values into one cell: the law needs exactly what
// the batched one needs, Zero a ⊕-identity on the instance's products.
// Skipped (nil) otherwise.
func CheckShardedBatchEqualsIncremental(inst Instance, entry semiring.Entry, shards int, splits []int) error {
	ops := entry.Ops
	if !zeroIsIdentityOn(ops, inst) {
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
	arms := []struct{ dir, read string }{{"", "none"}, {"", "snapshot"}, {"", "point"}}
	if shards <= 3 { // the disk is the slow arm: one to three shards take it
		dir, err := os.MkdirTemp("", "adjarray-laws-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		arms = append(arms, struct{ dir, read string }{dir, "point"})
	}
	for _, arm := range arms {
		got, err := replayStore(arm.dir, ops, inst, shards, arm.read)
		if err != nil {
			return fmt.Errorf("conformance: sharded batch==incremental: %d shards, read %s, durable %v: %w", shards, arm.read, arm.dir != "", err)
		}
		if diff := assoc.Diff(want, got, sameBits, value.FormatFloat); diff != "" {
			return fmt.Errorf("conformance: sharded batch==incremental violated for %s on %q (%d shards, splits %v, read %s, durable %v): %s",
				entry.Name, inst.Name, shards, inst.Splits, arm.read, arm.dir != "", diff)
		}
	}
	return nil
}

// sameBits is the laws' equality: the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Every registry pair, on adversarial instances, must satisfy the
// paper's metamorphic laws (each law self-gates on the algebraic
// property it needs, so non-examples run too).
func TestMetamorphicLaws(t *testing.T) {
	selectors := []struct {
		name           string
		rowSel, colSel keys.Selector
	}{
		{"all", keys.All{}, keys.All{}},
		{"prefix-v", keys.Prefix{P: "v"}, keys.All{}},
		{"range", keys.Range{Lo: "a", Hi: "s99"}, keys.Prefix{P: "t"}},
		{"empty-col", keys.All{}, keys.NewList("no-such-vertex")},
	}
	for _, entry := range semiring.Registry() {
		gen := NewGenerator(99)
		for i := 0; i < 20; i++ {
			inst := gen.Instance(entry)
			if err := CheckTransposeDuality(inst, entry); err != nil {
				t.Error(err)
			}
			if err := CheckDegreeSums(inst); err != nil {
				t.Error(err)
			}
			sel := selectors[i%len(selectors)]
			if err := CheckSubArraySelection(inst, entry, sel.rowSel, sel.colSel); err != nil {
				t.Errorf("selector %s: %v", sel.name, err)
			}
			// The instance's own splits, then a pathological every-edge split.
			if err := CheckBatchEqualsIncremental(inst, entry, nil); err != nil {
				t.Error(err)
			}
			everyEdge := make([]int, 0, len(inst.Edges))
			for s := 1; s < len(inst.Edges); s++ {
				everyEdge = append(everyEdge, s)
			}
			if err := CheckBatchEqualsIncremental(inst, entry, everyEdge); err != nil {
				t.Errorf("per-edge splits: %v", err)
			}
			// The sharded axis: arbitrary shard counts (including 1, a
			// degenerate sharded view, and counts exceeding the vertex
			// count) with the instance's own splits, plus per-edge splits
			// on a mid-size count.
			for _, shards := range []int{1, 2, 3, 5, 8} {
				if err := CheckShardedBatchEqualsIncremental(inst, entry, shards, nil); err != nil {
					t.Errorf("%d shards: %v", shards, err)
				}
			}
			if err := CheckShardedBatchEqualsIncremental(inst, entry, 4, everyEdge); err != nil {
				t.Errorf("4 shards per-edge splits: %v", err)
			}
		}
	}
}

// The duality law gates itself on ⊗ commutativity: for a pair whose ⊗
// is genuinely non-commutative the law must skip (nil) rather than
// report the inherent asymmetry as a violation. No registry float pair
// has a non-commutative ⊗ (first.* is non-commutative in ⊕, which the
// law does not need), so an ad-hoc pair exercises the gate.
func TestTransposeDualityGatesOnMulCommutativity(t *testing.T) {
	left := semiring.Entry{
		Name: "first.left",
		Ops: semiring.Ops[float64]{
			Name: "first.left",
			Add: func(a, b float64) float64 {
				if a != 0 {
					return a
				}
				return b
			},
			Mul:   func(a, b float64) float64 { return a }, // non-commutative ⊗
			Zero:  0,
			One:   1,
			Equal: func(a, b float64) bool { return a == b },
		},
		Sample: []float64{0, 1, 2, 3},
	}
	inst := Instance{Name: "asym", Edges: []Edge{
		{Key: "e0", Src: "a", Dst: "b", Out: 2, In: 3},
		{Key: "e1", Src: "b", Dst: "a", Out: 5, In: 7},
	}}
	inst.normalize()
	if err := CheckTransposeDuality(inst, left); err != nil {
		t.Errorf("non-commutative ⊗ must gate the law off, got: %v", err)
	}
}
