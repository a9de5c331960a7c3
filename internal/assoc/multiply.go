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
// Key alignment follows D4M semantics: the shared dimension is the
// intersection of A's column keys and B's row keys (keys present on only
// one side contribute nothing — their partner entries are zero). The
// result has A's row keys × B's column keys. Entries that fold to the
// algebra's zero are pruned.
func Mul[V any](a, b *Array[V], ops semiring.Ops[V], opt MulOptions) (*Array[V], error) {
	am, bm := a.mat, b.mat
	if !a.cols.Equal(b.rows) {
		shared := a.cols.Intersect(b.rows)
		// Extract only the side whose keys actually shrink: when the
		// shared dimension already is one side's full key set (the
		// common case — e.g. incidence arrays sharing their edge keys
		// with a few extras on one side), that side's matrix is used
		// as-is and no copy is made.
		if !shared.Equal(a.cols) {
			_, aColIdx := a.cols.Select(keys.InSet{Set: shared})
			var err error
			am, err = am.ExtractCols(aColIdx)
			if err != nil {
				return nil, fmt.Errorf("assoc: align lhs: %w", err)
			}
		}
		if !shared.Equal(b.rows) {
			_, bRowIdx := b.rows.Select(keys.InSet{Set: shared})
			var err error
			bm, err = bm.ExtractRows(bRowIdx)
			if err != nil {
				return nil, fmt.Errorf("assoc: align rhs: %w", err)
			}
		}
	}
	cm, err := sparse.Mxm(nil, am, bm, ops, opt)
	if err != nil {
		return nil, err
	}
	return &Array[V]{rows: a.rows, cols: b.cols, mat: cm}, nil
}

// Correlate computes AᵀB — the paper's fundamental correlation operation
// (Figures 3 and 5 captions: "this correlation is performed using the
// transpose operation T and the array multiplication ⊕.⊗"). The result
// relates A's column keys to B's column keys through the shared row keys.
//
// This is the one place construction chooses its kernel. Operands that
// share their row key set and hold one entry per row — the incidence
// arrays of a graph (Definition I.4) — are folded column against column
// by sparse.FoldUnitRows; everything else is Mul(Aᵀ, B), transposed on
// the parallel scatter kernel when opt requests parallelism. Both fold
// each cell in ascending shared-key order: the choice never shows.
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
	return Mul(a.TransposeParallel(opt.Workers), b, ops, opt)
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

// alignUnion embeds both operands into the union key space, with a fast
// path when they are already aligned. Alignment is pure integer-index
// embedding (keys.UnionOffsets + sparse.Embed): no string hashing, no
// COO re-sort, and values are never copied.
func alignUnion[V any](a, b *Array[V]) (*Array[V], *Array[V], error) {
	if a.rows.Equal(b.rows) && a.cols.Equal(b.cols) {
		return a, b, nil
	}
	rows, aRowPos, bRowPos := a.rows.UnionOffsets(b.rows)
	cols, aColPos, bColPos := a.cols.UnionOffsets(b.cols)
	am, err := sparse.Embed(a.mat, aRowPos, aColPos, rows.Len(), cols.Len())
	if err != nil {
		return nil, nil, fmt.Errorf("assoc: align lhs: %w", err)
	}
	bm, err := sparse.Embed(b.mat, bRowPos, bColPos, rows.Len(), cols.Len())
	if err != nil {
		return nil, nil, fmt.Errorf("assoc: align rhs: %w", err)
	}
	return &Array[V]{rows: rows, cols: cols, mat: am}, &Array[V]{rows: rows, cols: cols, mat: bm}, nil
}

// MulMasked computes (A ⊕.⊗ B) ∘ pattern(M) without materializing the
// full product — GraphBLAS-style masked multiplication. The operands
// must already be key-aligned: A's column keys equal B's row keys, and
// M's key sets equal A's rows × B's columns.
func MulMasked[V, M any](a, b *Array[V], mask *Array[M], ops semiring.Ops[V], opt MulOptions) (*Array[V], error) {
	if !a.cols.Equal(b.rows) {
		return nil, fmt.Errorf("assoc: MulMasked requires aligned shared keys")
	}
	if !mask.rows.Equal(a.rows) || !mask.cols.Equal(b.cols) {
		return nil, fmt.Errorf("assoc: MulMasked mask keys must be rows(A)×cols(B)")
	}
	m, err := sparse.Mxm(mask.mat.Pattern(), a.mat, b.mat, ops, opt)
	if err != nil {
		return nil, err
	}
	return &Array[V]{rows: a.rows, cols: b.cols, mat: m}, nil
}

// MulDense computes A ⊕.⊗ B by the literal Definition I.3, folding over
// EVERY shared key including structural zeros (materialized as ops.Zero).
// This is the mathematical ground truth used by the theorem machinery;
// see sparse.MulDense for why it differs from Mul exactly when the
// Theorem II.1 conditions fail. Key alignment: the shared dimension is
// the union in this case — absent keys contribute explicit zeros, which
// is precisely what the theorem's counterexamples need.
func MulDense[V any](a, b *Array[V], ops semiring.Ops[V]) (*Array[V], error) {
	shared := a.cols.Union(b.rows)
	am, err := a.Reindex(a.rows, shared)
	if err != nil {
		return nil, err
	}
	bm, err := b.Reindex(shared, b.cols)
	if err != nil {
		return nil, err
	}
	cm, err := sparse.MulDense(am.mat, bm.mat, ops)
	if err != nil {
		return nil, err
	}
	return &Array[V]{rows: a.rows, cols: b.cols, mat: cm}, nil
}
