package assoc

import (
	"fmt"

	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
)

// MulOptions tunes how a multiplication is scheduled — the engine's own
// options, Workers and FlopFloor; the result never depends on it.
type MulOptions = sparse.MxmOptions

// Mul computes C = A ⊕.⊗ B (Definition I.3): C(k1,k2) = ⊕_k A(k1,k)
// ⊗ B(k,k2), with the fold running in ascending key order over the
// shared dimension.
//
// Key alignment follows D4M semantics: a key that only one side holds
// meets an empty row or column on the other and contributes nothing, so
// A's columns and B's rows are embedded into their union
// (keys.UnionAll + sparse.Embed, values shared). The maps are strictly
// increasing, so every cell still folds in ascending shared-key order.
// The result has A's row keys × B's column keys. Entries that fold to
// the algebra's zero are pruned.
func Mul[V any](a, b *Array[V], ops semiring.Ops[V], opt MulOptions) (*Array[V], error) {
	am, bm, err := alignInner(a, b)
	if err != nil {
		return nil, err
	}
	cm, err := sparse.Mxm(am, bm, ops, opt)
	if err != nil {
		return nil, err
	}
	return &Array[V]{rows: a.rows, cols: b.cols, mat: cm}, nil
}

// alignInner embeds A's columns and B's rows into their union
// (keys.UnionAll + sparse.Embed, values shared): the shared dimension of
// a product. Operands that already share it keep their matrices.
func alignInner[V any](a, b *Array[V]) (am, bm *sparse.CSR[V], err error) {
	am, bm = a.mat, b.mat
	if a.cols.Equal(b.rows) {
		return am, bm, nil
	}
	shared, pos, err := keys.UnionAll([]*keys.Set{a.cols, b.rows})
	if err != nil {
		return nil, nil, err
	}
	if am, err = sparse.Embed(am, nil, pos[0], a.rows.Len(), shared.Len()); err != nil {
		return nil, nil, fmt.Errorf("assoc: align lhs: %w", err)
	}
	if bm, err = sparse.Embed(bm, pos[1], nil, shared.Len(), b.cols.Len()); err != nil {
		return nil, nil, fmt.Errorf("assoc: align rhs: %w", err)
	}
	return am, bm, nil
}

// Correlate computes AᵀB — the paper's fundamental correlation operation
// (Figures 3 and 5 captions: "this correlation is performed using the
// transpose operation T and the array multiplication ⊕.⊗"). The result
// relates A's column keys to B's column keys through the shared row keys.
//
// This is the one place construction chooses its kernel, read from the
// operands each call. Operands that share their row key set and hold one
// entry per row (rowPtr[i] = i) — the incidence arrays of a graph
// (Definition I.4) — are folded column against column by
// sparse.FoldUnitRows; everything else is Mul(Aᵀ, B). Both fold each
// cell in ascending shared-key order: the choice never shows.
func Correlate[V any](a, b *Array[V], ops semiring.Ops[V], opt MulOptions) (*Array[V], error) {
	if a.mat.UnitRows() && b.mat.UnitRows() && a.rows.Equal(b.rows) {
		_, src, out := a.mat.Parts()
		_, dst, in := b.mat.Parts()
		m, err := sparse.FoldUnitRows(a.cols.Len(), b.cols.Len(), src, dst, out, in, ops, opt)
		if err != nil {
			return nil, err
		}
		return &Array[V]{rows: a.cols, cols: b.cols, mat: m}, nil
	}
	return Mul(a.Transpose(), b, ops, opt)
}

// Add computes the element-wise A ⊕ B over the union of key sets:
// entries present on one side only are kept unchanged (0 ⊕ v = v).
func Add[V any](a, b *Array[V], ops semiring.Ops[V]) (*Array[V], error) {
	ar, br, err := alignUnion(a, b)
	if err != nil {
		return nil, err
	}
	m, err := sparse.EWiseAdd(ar.mat, br.mat, ops)
	if err != nil {
		return nil, err
	}
	return &Array[V]{rows: ar.rows, cols: ar.cols, mat: m}, nil
}

// ElementMul computes the element-wise A ⊗ B over the union key space
// (the pattern intersection of entries; a missing operand annihilates).
func ElementMul[V any](a, b *Array[V], ops semiring.Ops[V]) (*Array[V], error) {
	ar, br, err := alignUnion(a, b)
	if err != nil {
		return nil, err
	}
	m, err := sparse.EWiseMul(ar.mat, br.mat, ops)
	if err != nil {
		return nil, err
	}
	return &Array[V]{rows: ar.rows, cols: ar.cols, mat: m}, nil
}

// alignUnion embeds both operands into the union key space
// (keys.UnionAll + sparse.Embed): no string hashing, no sort, and
// values are never copied. An operand already in that space keeps its
// matrix as it is.
func alignUnion[V any](a, b *Array[V]) (*Array[V], *Array[V], error) {
	rows, rowPos, err := keys.UnionAll([]*keys.Set{a.rows, b.rows})
	if err != nil {
		return nil, nil, err
	}
	cols, colPos, err := keys.UnionAll([]*keys.Set{a.cols, b.cols})
	if err != nil {
		return nil, nil, err
	}
	am, err := sparse.Embed(a.mat, rowPos[0], colPos[0], rows.Len(), cols.Len())
	if err != nil {
		return nil, nil, fmt.Errorf("assoc: align lhs: %w", err)
	}
	bm, err := sparse.Embed(b.mat, rowPos[1], colPos[1], rows.Len(), cols.Len())
	if err != nil {
		return nil, nil, fmt.Errorf("assoc: align rhs: %w", err)
	}
	return &Array[V]{rows: rows, cols: cols, mat: am}, &Array[V]{rows: rows, cols: cols, mat: bm}, nil
}

// MulDense computes A ⊕.⊗ B by the literal Definition I.3, folding over
// EVERY shared key including structural zeros (materialized as ops.Zero).
// This is the mathematical ground truth used by the theorem machinery;
// see sparse.MulDense for why it differs from Mul exactly when the
// Theorem II.1 conditions fail. Key alignment is Mul's: the shared
// dimension is the union — absent keys contribute explicit zeros, which
// is precisely what the theorem's counterexamples need.
func MulDense[V any](a, b *Array[V], ops semiring.Ops[V]) (*Array[V], error) {
	am, bm, err := alignInner(a, b)
	if err != nil {
		return nil, err
	}
	cm, err := sparse.MulDense(am, bm, ops)
	if err != nil {
		return nil, err
	}
	return &Array[V]{rows: a.rows, cols: b.cols, mat: cm}, nil
}
