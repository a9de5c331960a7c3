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
// the left of every fold (a holds the earlier contributions). It aligns
// the operands itself — the union of the key sets by sorted
// union-with-offsets, b (the small side) embedded into it, a's place in
// it handed on as position maps, so a is never copied just to be
// renumbered and nothing goes through the string-keyed Reindex path —
// and merges them with AddIntoMapped. When inPlace is true and b's
// pattern is a subset of a's (after alignment), a's value buffer is
// folded in place and a itself returned — the zero-allocation
// steady-state of delta maintenance.
//
// Callers passing inPlace must own a exclusively: no snapshot handed out
// since a was last replaced may still be in use, and a must be treated as
// consumed after the call (its storage may have been folded into the
// result).
//
// Kept, without a production caller, as the reference the mapped merge
// and the gather are tested against.
func AddInto[V any](a, b *Array[V], ops semiring.Ops[V], inPlace bool) (*Array[V], error) {
	if b.NNZ() == 0 && b.rows.Len() == 0 && b.cols.Len() == 0 {
		return a, nil
	}
	rows, aRowPos, bRowPos := unionFast(a.rows, b.rows)
	cols, aColPos, bColPos := unionFast(a.cols, b.cols)
	bm, err := sparse.Embed(b.mat, bRowPos, bColPos, rows.Len(), cols.Len())
	if err != nil {
		return nil, fmt.Errorf("assoc: AddInto rhs embed: %w", err)
	}
	return AddIntoMapped(a, &Array[V]{rows: rows, cols: cols, mat: bm}, aRowPos, aColPos, ops, inPlace, nil)
}

// AddIntoMapped is the merge under AddInto for operands already aligned:
// b spans the result's key sets, and a's keys sit in them at the
// positions rowPos and colPos give (strictly increasing; nil: a's keys
// are the first of b's, in place). The merge reads a through the maps —
// one pass from a's own storage into the result, never an embedded copy
// of a first. The maps' lengths, order and range are checked; that
// position i really holds a's i-th key is the caller's word, which is
// what makes this cheaper than AddInto: the caller (internal/stream's
// fold, which grew the key sets itself) has the maps from the sweep that
// grew them.
//
// When the merge cannot run in place the result steals the scratch's
// slices instead of allocating (see sparse.MergeScratch), and — because
// inPlace marks a as consumed — the kernel donates a's superseded storage
// back to the scratch for the next call: an accumulator merged into
// repeatedly ping-pongs between two buffers and stops allocating in
// steady state.
func AddIntoMapped[V any](a, b *Array[V], rowPos, colPos []int32, ops semiring.Ops[V], inPlace bool, scratch *sparse.MergeScratch[V]) (*Array[V], error) {
	m, err := sparse.EWiseAddInto(a.mat, b.mat, ops, inPlace, scratch, rowPos, colPos)
	if err != nil {
		return nil, err
	}
	if m == a.mat && b.rows == a.rows && b.cols == a.cols {
		// Nothing moved: the fold landed in a's own storage.
		return a, nil
	}
	return &Array[V]{rows: b.rows, cols: b.cols, mat: m}, nil
}

// unionFast is UnionOffsets preceded by the delta-maintenance fast path:
// when b's keys all resolve in a's cached reverse index (the steady
// state — a delta touching only known keys against a long-lived set),
// the union IS a and only b's positions are produced, in O(len(b))
// instead of a sweep over both sets.
func unionFast(a, b *keys.Set) (u *keys.Set, aPos, bPos []int32) {
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
// keys)) when the targets are long-lived sets. Kept, like AddInto, as
// the tests' reference (embed, then merge).
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
