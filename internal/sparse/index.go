package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrIndexRange is wrapped by every refusal to assemble a matrix whose
// rows, columns or stored entries an int32 index cannot number. It is
// the cap graph.New, the interner and the checkpoint's colIdx section
// already impose.
var ErrIndexRange = errors.New("exceeds the 2³¹−1 (2147483647) an int32 index holds")

// checkIndexRange refuses a shape some index of which would not fit.
func checkIndexRange(rows, cols, nnz int) error {
	switch {
	case rows > math.MaxInt32:
		return fmt.Errorf("sparse: %d rows: %w", rows, ErrIndexRange)
	case cols > math.MaxInt32:
		return fmt.Errorf("sparse: %d columns: %w", cols, ErrIndexRange)
	case nnz > math.MaxInt32:
		return fmt.Errorf("sparse: %d stored entries: %w", nnz, ErrIndexRange)
	}
	return nil
}

// mustFitIndex is checkIndexRange for the assembler that returns no
// error (COO.ToCSR): like make with a length out of range, it panics —
// with the error, so a recover can still errors.Is it.
func mustFitIndex(rows, cols, nnz int) {
	if err := checkIndexRange(rows, cols, nnz); err != nil {
		panic(err)
	}
}

// prefixCounts turns the per-row entry counts in rowPtr[1:] into row
// offsets, in place. Each count fits an index (a row has at most cols
// entries); their sum may not, and is refused before it wraps.
func prefixCounts(rowPtr []int32) error {
	total := 0
	for i := 1; i < len(rowPtr); i++ {
		if total += int(rowPtr[i]); total > math.MaxInt32 {
			return fmt.Errorf("sparse: more than %d stored entries by row %d: %w", total, i-1, ErrIndexRange)
		}
		rowPtr[i] = int32(total)
	}
	return nil
}
