package assoc

import (
	"fmt"

	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
)

// Grow/merge entry points. The batch constructors (FromTriples, New)
// build whole arrays; a maintained adjacency view instead ⊕-folds small
// delta products into a large accumulator whose key sets grow. These
// paths reuse existing key sets and CSR backing wherever possible
// instead of re-sorting and re-allocating per batch (see internal/stream
// for the driver).

// AddInto computes a ⊕= b over the union key space, with a's entries on
// the left of every fold (a holds the earlier contributions). Key-set
// growth uses sorted union-with-offsets and integer-index embedding
// rather than the string-keyed Reindex path, and when inPlace is true
// and b's pattern is a subset of a's (after alignment), a's value buffer
// is folded in place and a itself returned — the zero-allocation
// steady-state of delta maintenance.
//
// Callers passing inPlace must own a exclusively: no snapshot handed out
// since a was last replaced may still be in use, and a must be treated as
// consumed after the call (its storage may have been folded into the
// result).
func AddInto[V any](a, b *Array[V], ops semiring.Ops[V], inPlace bool) (*Array[V], error) {
	return AddIntoScratch(a, b, ops, inPlace, nil)
}

// AddIntoScratch is AddInto with recycled output backing: when the merge
// cannot run in place, the result steals the scratch's slices instead of
// allocating (see sparse.MergeScratch), and — because inPlace marks a as
// consumed — a's superseded storage is donated back to the scratch for
// the next call. An accumulator merged into repeatedly (internal/stream's
// overlay, internal/shard's partial fold) therefore ping-pongs between
// two buffers and stops allocating in steady state.
func AddIntoScratch[V any](a, b *Array[V], ops semiring.Ops[V], inPlace bool, scratch *sparse.MergeScratch[V]) (*Array[V], error) {
	return AddIntoScratchWorkers(a, b, ops, inPlace, scratch, 1)
}

// AddIntoScratchWorkers is AddIntoScratch with the per-row union merge
// parallelized across merge-cost-balanced row spans when workers > 1
// (or < 0 for GOMAXPROCS) — bit-identical to the serial merge, see
// sparse.EWiseAddIntoParallel. This is the accumulator-side counterpart
// of MulOptions.Workers: a maintained adjacency large enough for merges
// to dominate folds its deltas span-parallel.
func AddIntoScratchWorkers[V any](a, b *Array[V], ops semiring.Ops[V], inPlace bool, scratch *sparse.MergeScratch[V], workers int) (*Array[V], error) {
	if b.NNZ() == 0 && b.rows.Len() == 0 && b.cols.Len() == 0 {
		return a, nil
	}
	rows, aRowPos, bRowPos := unionFast(a.rows, b.rows)
	cols, aColPos, bColPos := unionFast(a.cols, b.cols)
	am, err := sparse.Embed(a.mat, aRowPos, aColPos, rows.Len(), cols.Len())
	if err != nil {
		return nil, fmt.Errorf("assoc: AddInto lhs embed: %w", err)
	}
	bm, err := sparse.Embed(b.mat, bRowPos, bColPos, rows.Len(), cols.Len())
	if err != nil {
		return nil, fmt.Errorf("assoc: AddInto rhs embed: %w", err)
	}
	// In-place is only meaningful when the embed shared a's value
	// buffer unchanged — true whenever a's key sets already span the
	// union (Embed never copies values, so am.val IS a.mat's buffer).
	var m *sparse.CSR[V]
	if workers > 1 || workers < 0 {
		m, err = sparse.EWiseAddIntoParallel(am, bm, ops, inPlace, scratch, workers)
	} else {
		m, err = sparse.EWiseAddInto(am, bm, ops, inPlace, scratch)
	}
	if err != nil {
		return nil, err
	}
	if m == am && am.Rows() == a.mat.Rows() && am.Cols() == a.mat.Cols() && aRowPos == nil && aColPos == nil {
		// Nothing moved: the fold landed in a's own storage.
		return a, nil
	}
	if scratch != nil && inPlace && m != am {
		// The result is a full copy (scratch-backed), so consumed a's
		// old storage is free — donate it for the next merge. (When
		// m == am the result still aliases a's buffers: keep them.)
		scratch.Recycle(a.mat)
	}
	return &Array[V]{rows: rows, cols: cols, mat: m}, nil
}

// unionFast is UnionOffsets preceded by the delta-maintenance fast path:
// when b's keys all resolve in a's cached reverse index (the steady
// state — a delta touching only known keys against a long-lived set),
// the union IS a and only b's positions are produced, in O(len(b))
// instead of a sweep over both sets.
func unionFast(a, b *keys.Set) (u *keys.Set, aPos, bPos []int) {
	if p, ok := b.PositionsIn(a); ok {
		return a, nil, p
	}
	return a.UnionOffsets(b)
}

// EmbedInto returns a with its key sets grown to the given supersets
// (every existing key must appear in the new sets, in the same relative
// order they already have — supersets always satisfy this). It is the
// fast integer-index form of Reindex for the grow-only case: values are
// never copied, shared backing is reused where possible, and positions
// resolve through the supersets' cached reverse indexes — O(len(a's
// keys)) when the targets are long-lived sets (internal/stream embeds
// every batch partial into the log's stable vertex universe this way).
func (a *Array[V]) EmbedInto(rows, cols *keys.Set) (*Array[V], error) {
	rowPos, ok := a.rows.PositionsIn(rows)
	if !ok {
		return nil, fmt.Errorf("assoc: EmbedInto target rows missing keys of a")
	}
	colPos, ok := a.cols.PositionsIn(cols)
	if !ok {
		return nil, fmt.Errorf("assoc: EmbedInto target cols missing keys of a")
	}
	m, err := sparse.Embed(a.mat, rowPos, colPos, rows.Len(), cols.Len())
	if err != nil {
		return nil, err
	}
	return &Array[V]{rows: rows, cols: cols, mat: m}, nil
}
