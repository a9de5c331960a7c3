package stream

import (
	"math"
	"testing"

	"adjarray/internal/semiring"
)

// The unweighted-edge regression suite. The old convention inferred
// "weight omitted" from the value being the algebra's Zero, which is
// wrong in both directions: an omitted weight arrives as Go's zero
// value 0.0, which is NOT the Zero of min.* (+Inf) or min.max (+Inf) —
// so the edge silently ingested with literal weight 0 instead of One —
// and an explicitly provided weight equal to the algebra's Zero was
// indistinguishable from "omitted" and got rewritten to One. The
// HasOut/HasIn presence flags fix both; these tests fail against the
// sentinel behavior.

// An unweighted edge (flags unset) must ingest as One ⊗ One under every
// registered pair — most pointedly +Inf under max.min (the widest-path
// workload) and 1 under min.*, where the Go zero value is neither the
// algebra's Zero nor its One and the sentinel ingested weight 0.0.
func TestUnweightedEdgeSelectsOnePerAlgebra(t *testing.T) {
	for _, entry := range semiring.Registry() {
		ops := entry.Ops
		want := ops.Mul(ops.One, ops.One)
		v := NewView(ops, Options{})
		// The first batch introduces its vertices, the second names only
		// known ones; the convention must hold on both.
		if err := v.Append([]Edge[float64]{{Key: "k1", Src: "a", Dst: "b"}}); err != nil {
			t.Fatalf("%s: append: %v", ops.Name, err)
		}
		if err := v.Append([]Edge[float64]{{Key: "k2", Src: "b", Dst: "a"}}); err != nil {
			t.Fatalf("%s: second append: %v", ops.Name, err)
		}
		snap := mustSnap(t, v)
		for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}} {
			got, ok := snap.Adjacency.At(pair[0], pair[1])
			if ops.IsZero(want) {
				// One ⊗ One folding to Zero would legitimately prune; no
				// registered pair does this, but keep the check honest.
				if ok {
					t.Errorf("%s: expected pruned entry, got %v", ops.Name, got)
				}
				continue
			}
			if !ok || !ops.Equal(got, want) {
				t.Errorf("%s: unweighted edge %v→%v ingested as %v (stored=%v), want One⊗One = %v",
					ops.Name, pair[0], pair[1], got, ok, want)
			}
		}
		// The log records the substituted One, so a Compact rebuild must
		// agree with the incremental state.
		if err := v.Compact(); err != nil {
			t.Fatalf("%s: compact: %v", ops.Name, err)
		}
		if got, ok := mustSnap(t, v).Adjacency.At("a", "b"); !ops.IsZero(want) && (!ok || !ops.Equal(got, want)) {
			t.Errorf("%s: compacted unweighted edge = %v (stored=%v), want %v", ops.Name, got, ok, want)
		}
	}
}

// The acceptance pin: under max.min an unweighted edge is a width-∞
// connection (One = +Inf), not width 0.
func TestUnweightedEdgeMaxMinIsPosInf(t *testing.T) {
	entry, ok := semiring.Lookup("max.min")
	if !ok {
		t.Fatal("max.min not registered")
	}
	v := NewView(entry.Ops, Options{})
	if err := v.Append([]Edge[float64]{{Key: "k1", Src: "s", Dst: "t"}}); err != nil {
		t.Fatal(err)
	}
	got, stored := mustSnap(t, v).Adjacency.At("s", "t")
	if !stored || !math.IsInf(got, 1) {
		t.Fatalf("max.min unweighted edge = %v (stored=%v), want +Inf", got, stored)
	}
}

// An explicitly Zero-valued weight must round-trip instead of being
// rewritten to One: the edge's contribution annihilates (Zero ⊗ v = 0)
// and the adjacency stays empty at that cell. Under the sentinel, +.*
// turned an explicit 0 into weight 1 and max.min turned an explicit 0
// into an infinite-width edge.
func TestExplicitZeroWeightRoundTrips(t *testing.T) {
	for _, name := range []string{"+.*", "max.min", "max.*"} {
		entry, ok := semiring.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		ops := entry.Ops
		v := NewView(ops, Options{})
		if err := v.Append([]Edge[float64]{Weighted("k1", "a", "b", ops.Zero, 5)}); err != nil {
			t.Fatalf("%s: append: %v", name, err)
		}
		snap := mustSnap(t, v)
		if got, stored := snap.Adjacency.At("a", "b"); stored {
			t.Errorf("%s: explicit Zero out-weight produced adjacency entry %v; want annihilated", name, got)
		}
		// The log keeps the literal value — the ingested weight is not
		// rewritten.
		eout, _ := mustLogs(t, snap)
		if got, stored := eout.At("k1", "a"); !stored || !ops.Equal(got, ops.Zero) {
			t.Errorf("%s: log stored out-weight %v (stored=%v), want the explicit Zero %v", name, got, stored, ops.Zero)
		}
	}
}

// Mixed presence: an explicit out-weight with an omitted in-weight.
func TestMixedWeightPresence(t *testing.T) {
	entry, _ := semiring.Lookup("min.+")
	ops := entry.Ops // One = 0, Zero = +Inf
	v := NewView(ops, Options{})
	if err := v.Append([]Edge[float64]{{Key: "k1", Src: "a", Dst: "b", Out: 7, HasOut: true}}); err != nil {
		t.Fatal(err)
	}
	// 7 ⊗ One = 7 + 0 = 7.
	if got, ok := mustSnap(t, v).Adjacency.At("a", "b"); !ok || got != 7 {
		t.Fatalf("min.+ mixed presence: got %v (stored=%v), want 7", got, ok)
	}
}
