package assoc

import (
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
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
func MulKeys[V, W any](a *Array[V], b *Array[W]) (*Array[value.Set], error) {
	am, bm := a.mat, b.mat
	sharedKeys := a.cols
	if !a.cols.Equal(b.rows) {
		sharedKeys = a.cols.Intersect(b.rows)
		_, aColIdx := a.cols.Select(keys.InSet{Set: sharedKeys})
		_, bRowIdx := b.rows.Select(keys.InSet{Set: sharedKeys})
		var err error
		am, err = am.ExtractCols(aColIdx)
		if err != nil {
			return nil, err
		}
		bm, err = bm.ExtractRows(bRowIdx)
		if err != nil {
			return nil, err
		}
	}
	// Convert both operands to singleton key sets indexed by the shared
	// dimension, then multiply under ∪.∪: every matching k contributes
	// {k}, and ⊕ = ∪ accumulates them. ⊗ must also produce {k}: both
	// operands of a product carry the same k by construction, so ∪ works
	// as "keep the key".
	ak := sparse.Convert(am, func(_, j int, _ V) value.Set {
		return value.NewSet(sharedKeys.Key(j))
	})
	bk := sparse.Convert(bm, func(i, _ int, _ W) value.Set {
		return value.NewSet(sharedKeys.Key(i))
	})
	cm, err := sparse.Mxm(nil, ak, bk, keyUnionOps(), sparse.MxmOptions{})
	if err != nil {
		return nil, err
	}
	return &Array[value.Set]{rows: a.rows, cols: b.cols, mat: cm}, nil
}

// CorrelateKeys computes the provenance form of the paper's adjacency
// construction: C = AᵀB with C(a, b) = the set of edge keys k with
// Eout(k,a) and Ein(k,b) non-zero.
func CorrelateKeys[V, W any](a *Array[V], b *Array[W]) (*Array[value.Set], error) {
	return MulKeys(a.Transpose(), b)
}

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
