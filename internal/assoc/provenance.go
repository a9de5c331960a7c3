package assoc

import (
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

// Provenance multiplication — D4M's "CatKeyMul" in set form. Where
// ordinary array multiplication folds the VALUES of the contributing
// terms, provenance multiplication records the shared KEYS that
// contributed: for adjacency construction, C(a, b) is the set of edge
// keys connecting a to b. The paper's Figure 3 caption describes the
// values as weights "on the edges between the vertices of the graph";
// the provenance product recovers the edges themselves — which is also
// a constructive proof of the Definition I.5 pattern, since C(a,b) ≠ ∅
// iff an edge a→b exists.

// MulKeys computes the provenance product of A : K1×K3 and B : K3×K2:
// entry (k1, k2) is the set of shared keys k ∈ K3 with A(k1,k) and
// B(k,k2) both stored. The result's entries are never empty sets.
//
// It is Mul under ∪.∪ over the operands converted to singleton key
// sets — each A entry becomes {its column key}, each B entry {its row
// key} — so every matching k contributes {k} ∪ {k} = {k}, and ⊕ = ∪
// accumulates them.
func MulKeys[V, W any](a *Array[V], b *Array[W]) (*Array[value.Set], error) {
	return Mul(Convert(a, colKey[V]), Convert(b, rowKey[W]), keyUnionOps(), MulOptions{})
}

// CorrelateKeys computes the provenance form of the paper's adjacency
// construction: C = AᵀB with C(a, b) = the set of edge keys k with
// Eout(k,a) and Ein(k,b) non-zero. It is MulKeys(Aᵀ, B) through
// Correlate, so a graph's incidence pair takes the fold.
func CorrelateKeys[V, W any](a *Array[V], b *Array[W]) (*Array[value.Set], error) {
	return Correlate(Convert(a, rowKey[V]), Convert(b, rowKey[W]), keyUnionOps(), MulOptions{})
}

func rowKey[V any](row, _ string, _ V) value.Set { return value.NewSet(row) }

func colKey[V any](_, col string, _ V) value.Set { return value.NewSet(col) }

// keyUnionOps is the ∪.∪ pair over key sets. It satisfies all three
// Theorem II.1 conditions (∅ is the only zero; union of non-empty sets
// is non-empty; ∅ ∪ s = s makes ∅ annihilate nothing — but ⊗ = ∪ never
// produces ∅ from non-empty operands and the sparse kernel never feeds
// it ∅), so the provenance pattern always equals the adjacency pattern.
func keyUnionOps() semiring.Ops[value.Set] {
	return semiring.Ops[value.Set]{
		Name:  "union.union",
		Add:   func(a, b value.Set) value.Set { return a.Union(b) },
		Mul:   func(a, b value.Set) value.Set { return a.Union(b) },
		Zero:  nil,
		One:   nil,
		Equal: func(a, b value.Set) bool { return a.Equal(b) },
	}
}
