package sparse

import (
	"fmt"
	"sort"
)

// Triple is one (row, column, value) coordinate entry.
type Triple[V any] struct {
	Row, Col int
	Val      V
}

// COO is an append-only coordinate-format builder. Triples may arrive in
// any order and may duplicate coordinates; ToCSR sorts and combines
// duplicates with a caller-supplied ⊕, folding duplicates in insertion
// order (the order data arrived, matching D4M's Assoc constructor
// semantics).
type COO[V any] struct {
	rows, cols int
	triples    []Triple[V]
}

// NewCOO creates an empty rows×cols builder.
func NewCOO[V any](rows, cols int) *COO[V] {
	return &COO[V]{rows: rows, cols: cols}
}

// Rows returns the row dimension.
func (c *COO[V]) Rows() int { return c.rows }

// Cols returns the column dimension.
func (c *COO[V]) Cols() int { return c.cols }

// Len returns the number of appended triples (duplicates included).
func (c *COO[V]) Len() int { return len(c.triples) }

// Append adds one entry, validating bounds.
func (c *COO[V]) Append(row, col int, v V) error {
	if row < 0 || row >= c.rows {
		return fmt.Errorf("sparse: COO row %d out of range [0,%d)", row, c.rows)
	}
	if col < 0 || col >= c.cols {
		return fmt.Errorf("sparse: COO col %d out of range [0,%d)", col, c.cols)
	}
	c.triples = append(c.triples, Triple[V]{Row: row, Col: col, Val: v})
	return nil
}

// MustAppend is Append for statically in-range coordinates; it panics on
// a bounds violation (a programmer error in generated data).
func (c *COO[V]) MustAppend(row, col int, v V) {
	if err := c.Append(row, col, v); err != nil {
		panic(err)
	}
}

// ToCSR sorts the triples row-major and combines duplicate coordinates
// with combine (nil combine keeps the last value, D4M overwrite
// semantics). Duplicates are folded left-to-right in insertion order.
// A builder past the index range panics with the ErrIndexRange error.
func (c *COO[V]) ToCSR(combine func(V, V) V) *CSR[V] {
	mustFitIndex(c.rows, c.cols, len(c.triples))
	ts := make([]Triple[V], len(c.triples))
	copy(ts, c.triples)
	// Stable keeps insertion order among equal coordinates so the
	// combine fold is deterministic for non-commutative ⊕.
	sort.SliceStable(ts, func(a, b int) bool {
		if ts[a].Row != ts[b].Row {
			return ts[a].Row < ts[b].Row
		}
		return ts[a].Col < ts[b].Col
	})
	rowPtr := make([]int32, c.rows+1)
	colIdx := make([]int32, 0, len(ts))
	val := make([]V, 0, len(ts))
	for i := 0; i < len(ts); {
		j := i + 1
		acc := ts[i].Val
		for j < len(ts) && ts[j].Row == ts[i].Row && ts[j].Col == ts[i].Col {
			if combine != nil {
				acc = combine(acc, ts[j].Val)
			} else {
				acc = ts[j].Val
			}
			j++
		}
		colIdx = append(colIdx, int32(ts[i].Col))
		val = append(val, acc)
		rowPtr[ts[i].Row+1]++
		i = j
	}
	for i := 0; i < c.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return &CSR[V]{rows: c.rows, cols: c.cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}
