package sparse

import (
	"fmt"

	"adjarray/internal/semiring"
)

// COO is the coordinate-format fixture builder of this package's tests:
// triples in any order, coordinates possibly repeated, assembled by the
// program's own cell grouping (GroupUnitRows) and run fold (FoldRuns),
// as assoc.FromTriples assembles its arrays.
type COO[V any] struct {
	rows, cols int
	row, col   []int32
	val        []V
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
func (c *COO[V]) Len() int { return len(c.row) }

// Append adds one entry, validating bounds.
func (c *COO[V]) Append(row, col int, v V) error {
	if row < 0 || row >= c.rows {
		return fmt.Errorf("sparse: COO row %d out of range [0,%d)", row, c.rows)
	}
	if col < 0 || col >= c.cols {
		return fmt.Errorf("sparse: COO col %d out of range [0,%d)", col, c.cols)
	}
	c.row, c.col, c.val = append(c.row, int32(row)), append(c.col, int32(col)), append(c.val, v)
	return nil
}

// MustAppend is Append for statically in-range coordinates; it panics on
// a bounds violation.
func (c *COO[V]) MustAppend(row, col int, v V) {
	if err := c.Append(row, col, v); err != nil {
		panic(err)
	}
}

// ToCSR groups the triples by cell and folds each cell's run left to
// right in insertion order with combine (nil keeps the last value). A
// builder past the index range panics with the ErrIndexRange error.
func (c *COO[V]) ToCSR(combine func(V, V) V) *CSR[V] {
	m, err := GroupUnitRows(c.rows, c.cols, c.row, c.col, c.val, nil, semiring.Ops[V]{}, nil)
	if err != nil {
		panic(err)
	}
	return FoldRuns(m, combine)
}
