// Package assoc implements the paper's central data structure: the
// associative array A : K1×K2 → V of Definition I.1, a map from pairs
// of keys drawn from finite totally-ordered string key sets to values
// in V, stored sparsely (only non-zero entries are materialized).
//
// The public surface follows D4M's Assoc semantics: arrays are built
// from (row, col, value) triples, sliced with key selectors, transposed,
// combined element-wise, and multiplied with a caller-chosen operator
// pair ⊕.⊗ (Definition I.3). Arrays are immutable after construction —
// every operation returns a new Array — and safe for concurrent use.
package assoc

import (
	"fmt"
	"sort"

	"adjarray/internal/keys"
	"adjarray/internal/sparse"
)

// Array is an associative array over string keys with values of type V.
// The zero value is not usable; construct with NewBuilder, FromTriples,
// or the operations on existing Arrays.
type Array[V any] struct {
	rows *keys.Set
	cols *keys.Set
	mat  *sparse.CSR[V]
}

// Triple is one stored (rowKey, colKey, value) entry.
type Triple[V any] struct {
	Row, Col string
	Val      V
}

// FromTriples builds an Array from entries. Duplicate (row, col) pairs
// are folded left-to-right in slice order with combine; nil combine
// keeps the last write (D4M overwrite semantics). Key sets are the sets
// of distinct keys that appear.
func FromTriples[V any](ts []Triple[V], combine func(V, V) V) *Array[V] {
	rk := make([]string, 0, len(ts))
	ck := make([]string, 0, len(ts))
	for _, t := range ts {
		rk = append(rk, t.Row)
		ck = append(ck, t.Col)
	}
	rows := keys.New(rk...)
	cols := keys.New(ck...)
	coo := sparse.NewCOO[V](rows.Len(), cols.Len())
	for _, t := range ts {
		ri, _ := rows.Index(t.Row)
		ci, _ := cols.Index(t.Col)
		coo.MustAppend(ri, ci, t.Val)
	}
	return &Array[V]{rows: rows, cols: cols, mat: coo.ToCSR(combine)}
}

// New wraps explicit key sets and a matching sparse matrix. The matrix
// dimensions must equal the key-set sizes.
func New[V any](rows, cols *keys.Set, mat *sparse.CSR[V]) (*Array[V], error) {
	if mat.Rows() != rows.Len() || mat.Cols() != cols.Len() {
		return nil, fmt.Errorf("assoc: matrix %d×%d does not match key sets %d×%d",
			mat.Rows(), mat.Cols(), rows.Len(), cols.Len())
	}
	return &Array[V]{rows: rows, cols: cols, mat: mat}, nil
}

// Builder accumulates triples for an Array.
type Builder[V any] struct {
	ts      []Triple[V]
	combine func(V, V) V
}

// NewBuilder creates a Builder. combine folds duplicate coordinates in
// insertion order; nil keeps the last write.
func NewBuilder[V any](combine func(V, V) V) *Builder[V] {
	return &Builder[V]{combine: combine}
}

// Set appends one entry.
func (b *Builder[V]) Set(row, col string, v V) *Builder[V] {
	b.ts = append(b.ts, Triple[V]{Row: row, Col: col, Val: v})
	return b
}

// Len returns the number of staged triples.
func (b *Builder[V]) Len() int { return len(b.ts) }

// Build constructs the Array.
func (b *Builder[V]) Build() *Array[V] { return FromTriples(b.ts, b.combine) }

// RowKeys returns the ordered row key set.
func (a *Array[V]) RowKeys() *keys.Set { return a.rows }

// ColKeys returns the ordered column key set.
func (a *Array[V]) ColKeys() *keys.Set { return a.cols }

// NNZ returns the number of stored entries.
func (a *Array[V]) NNZ() int { return a.mat.NNZ() }

// Shape returns (number of row keys, number of column keys).
func (a *Array[V]) Shape() (int, int) { return a.rows.Len(), a.cols.Len() }

// Matrix exposes the underlying CSR (read-only by convention).
func (a *Array[V]) Matrix() *sparse.CSR[V] { return a.mat }

// At returns the value stored at (row, col) and whether an entry exists.
func (a *Array[V]) At(row, col string) (V, bool) {
	var zero V
	ri, ok := a.rows.Index(row)
	if !ok {
		return zero, false
	}
	ci, ok := a.cols.Index(col)
	if !ok {
		return zero, false
	}
	return a.mat.At(ri, ci)
}

// Triples returns all stored entries in row-major key order.
func (a *Array[V]) Triples() []Triple[V] {
	out := make([]Triple[V], 0, a.mat.NNZ())
	a.mat.Iterate(func(i, j int, v V) {
		out = append(out, Triple[V]{Row: a.rows.Key(i), Col: a.cols.Key(j), Val: v})
	})
	return out
}

// Iterate visits stored entries in row-major key order.
func (a *Array[V]) Iterate(fn func(row, col string, v V)) {
	a.mat.Iterate(func(i, j int, v V) {
		fn(a.rows.Key(i), a.cols.Key(j), v)
	})
}

// IterateUntil visits stored entries in row-major key order until fn
// returns false, and reports whether the sweep ran to completion — the
// early-exit path for bounded reads (a server answering ?limit=1 must
// not walk every entry).
func (a *Array[V]) IterateUntil(fn func(row, col string, v V) bool) bool {
	return a.mat.IterateUntil(func(i, j int, v V) bool {
		return fn(a.rows.Key(i), a.cols.Key(j), v)
	})
}

// Equal reports whether two arrays have identical key sets and entries.
func (a *Array[V]) Equal(b *Array[V], eq func(V, V) bool) bool {
	return a.rows.Equal(b.rows) && a.cols.Equal(b.cols) && sparse.Equal(a.mat, b.mat, eq)
}

// SamePattern reports whether two arrays have identical key sets and
// non-zero structure, regardless of values — the sense in which the
// paper says different semirings "preserve the pattern of edges".
func SamePattern[V, W any](a *Array[V], b *Array[W]) bool {
	return a.rows.Equal(b.rows) && a.cols.Equal(b.cols) && sparse.SamePattern(a.mat, b.mat)
}

// Map applies fn to every stored entry, preserving the pattern.
func (a *Array[V]) Map(fn func(row, col string, v V) V) *Array[V] {
	m := a.mat.Map(func(i, j int, v V) V {
		return fn(a.rows.Key(i), a.cols.Key(j), v)
	})
	return &Array[V]{rows: a.rows, cols: a.cols, mat: m}
}

// Prune drops entries isZero reports as zero, keeping key sets intact.
func (a *Array[V]) Prune(isZero func(V) bool) *Array[V] {
	return &Array[V]{rows: a.rows, cols: a.cols, mat: a.mat.Prune(isZero)}
}

// SubRef selects the sub-array with rows matching rowSel and columns
// matching colSel (nil selectors mean "all") — the paper's
// E(:, 'Genre|A : Genre|Z') notation from Figures 1–2. Rows and columns
// with no selected key are dropped from the key sets but untouched
// entries keep their values.
func (a *Array[V]) SubRef(rowSel, colSel keys.Selector) *Array[V] {
	subRows, rowIdx := a.rows.Select(rowSel)
	subCols, colIdx := a.cols.Select(colSel)
	m, err := a.mat.ExtractRows(rowIdx)
	if err != nil {
		panic(fmt.Sprintf("assoc: internal extract rows: %v", err)) // indices come from Select
	}
	m, err = m.ExtractCols(colIdx)
	if err != nil {
		panic(fmt.Sprintf("assoc: internal extract cols: %v", err))
	}
	return &Array[V]{rows: subRows, cols: subCols, mat: m}
}

// SubRefExpr is SubRef with D4M selector strings (see keys.Parse).
func (a *Array[V]) SubRefExpr(rowExpr, colExpr string) (*Array[V], error) {
	rs, err := keys.Parse(rowExpr)
	if err != nil {
		return nil, fmt.Errorf("assoc: row selector: %w", err)
	}
	cs, err := keys.Parse(colExpr)
	if err != nil {
		return nil, fmt.Errorf("assoc: col selector: %w", err)
	}
	return a.SubRef(rs, cs), nil
}

// Transpose returns Aᵀ (Definition I.2): row and column key sets swap.
func (a *Array[V]) Transpose() *Array[V] {
	return &Array[V]{rows: a.cols, cols: a.rows, mat: a.mat.Transpose()}
}

// TransposeParallel is Transpose with the storage scatter parallelized
// across workers, read as MulOptions.Workers is (0 or 1 serial, < 0
// GOMAXPROCS); identical result.
func (a *Array[V]) TransposeParallel(workers int) *Array[V] {
	return &Array[V]{rows: a.cols, cols: a.rows, mat: sparse.TransposeParallel(a.mat, workers)}
}

// RowDegrees returns the stored-entry count per row key.
func (a *Array[V]) RowDegrees() map[string]int {
	out := make(map[string]int, a.rows.Len())
	for i := 0; i < a.rows.Len(); i++ {
		out[a.rows.Key(i)] = a.mat.RowNNZ(i)
	}
	return out
}

// ColDegrees returns the stored-entry count per column key.
func (a *Array[V]) ColDegrees() map[string]int {
	out := make(map[string]int, a.cols.Len())
	t := a.mat.Transpose()
	for j := 0; j < a.cols.Len(); j++ {
		out[a.cols.Key(j)] = t.RowNNZ(j)
	}
	return out
}

// Reindex embeds the array into larger (or reordered) key sets: entries
// keep their (rowKey, colKey) coordinates, mapped into the new sets.
// Every existing key must be present in the new sets.
func (a *Array[V]) Reindex(newRows, newCols *keys.Set) (*Array[V], error) {
	coo := sparse.NewCOO[V](newRows.Len(), newCols.Len())
	var missing string
	a.mat.Iterate(func(i, j int, v V) {
		ri, ok := newRows.Index(a.rows.Key(i))
		if !ok {
			missing = "row " + a.rows.Key(i)
			return
		}
		ci, ok := newCols.Index(a.cols.Key(j))
		if !ok {
			missing = "col " + a.cols.Key(j)
			return
		}
		coo.MustAppend(ri, ci, v)
	})
	if missing != "" {
		return nil, fmt.Errorf("assoc: Reindex target sets missing %s", missing)
	}
	return &Array[V]{rows: newRows, cols: newCols, mat: coo.ToCSR(nil)}, nil
}

// Convert maps stored values through f into a new value type, keeping
// key sets and pattern. Unlike rebuilding from Triples, rows/columns
// whose entries all vanish elsewhere keep their keys.
func Convert[V, W any](a *Array[V], f func(row, col string, v V) W) *Array[W] {
	m := sparse.Convert(a.mat, func(i, j int, v V) W {
		return f(a.rows.Key(i), a.cols.Key(j), v)
	})
	return &Array[W]{rows: a.rows, cols: a.cols, mat: m}
}

// ReduceRows folds each row's entries with ⊕ in ascending column-key
// order, returning a map from row key to folded value. Rows with no
// entries are absent from the map.
func ReduceRows[V any](a *Array[V], add func(V, V) V) map[string]V {
	vals, nonEmpty := sparse.ReduceRows(a.mat, add)
	out := make(map[string]V)
	for i, ok := range nonEmpty {
		if ok {
			out[a.rows.Key(i)] = vals[i]
		}
	}
	return out
}

// ReduceAll folds every stored entry with ⊕ in row-major key order,
// returning the fold and whether any entry existed.
func ReduceAll[V any](a *Array[V], add func(V, V) V) (V, bool) {
	var acc V
	any := false
	a.mat.Iterate(func(_, _ int, v V) {
		if !any {
			acc = v
			any = true
		} else {
			acc = add(acc, v)
		}
	})
	return acc, any
}

// SortedTripleStrings renders triples as "row|col -> val" lines, sorted;
// a convenience for golden tests and debug dumps.
func SortedTripleStrings[V any](a *Array[V], format func(V) string) []string {
	ts := a.Triples()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = fmt.Sprintf("%s|%s -> %s", t.Row, t.Col, format(t.Val))
	}
	sort.Strings(out)
	return out
}
