package sparse

import (
	"fmt"

	"adjarray/internal/semiring"
)

// Growth kernels for incrementally maintained matrices: coordinate-space
// embedding and the one gather merge (Gather). These are the storage
// layer of the delta-batch identity
//
//	A ⊕= Eout[K′,:]ᵀ ⊕.⊗ Ein[K′,:]
//
// where a small delta is folded into a large accumulator thousands of
// times. The batch kernels above rebuild whole matrices per call; the
// kernels here read the accumulator where it lies, through position maps,
// and share its backing where nothing moves. None writes a matrix it was
// handed: a stored matrix is never written again.

// Embed maps m into a larger coordinate space: the result is
// newRows×newCols with row i of m living at rowPos[i] and column j
// renumbered colPos[j]. Position maps must be strictly increasing (the
// embedding preserves order, so no row needs re-sorting); nil means the
// identity. Rows not hit by rowPos are empty.
//
// Values are never copied: the result shares m's value slice, plus its
// column slice when colPos is nil, and an embedding that moves nothing
// into a space of m's own shape is m itself. Every alignment of key sets
// ends here, behind keys.UnionAll's position maps — assoc's products,
// element-wise operations and Reindex — in O(rows+nnz) with no string
// hashing and no sort.
func Embed[V any](m *CSR[V], rowPos, colPos []int32, newRows, newCols int) (*CSR[V], error) {
	if err := checkEmbed(m, rowPos, colPos, newRows, newCols); err != nil {
		return nil, err
	}
	if rowPos == nil && colPos == nil && newRows == m.rows && newCols == m.cols {
		return m, nil
	}

	colIdx := m.colIdx
	if colPos != nil {
		colIdx = make([]int32, len(m.colIdx))
		for p, j := range m.colIdx {
			colIdx[p] = colPos[j]
		}
	}
	rowPtr := m.rowPtr
	switch {
	case rowPos == nil && newRows == m.rows:
		// share rowPtr as-is
	case rowPos == nil:
		rowPtr = make([]int32, newRows+1)
		copy(rowPtr, m.rowPtr)
		for i := m.rows + 1; i <= newRows; i++ {
			rowPtr[i] = m.rowPtr[m.rows]
		}
	default:
		rowPtr = make([]int32, newRows+1)
		var next int32
		for i := 0; i < m.rows; i++ {
			for r := next; r <= rowPos[i]; r++ {
				rowPtr[r] = m.rowPtr[i]
			}
			next = rowPos[i] + 1
		}
		for r := int(next); r <= newRows; r++ {
			rowPtr[r] = m.rowPtr[m.rows]
		}
	}
	return &CSR[V]{rows: newRows, cols: newCols, rowPtr: rowPtr, colIdx: colIdx, val: m.val}, nil
}

// checkEmbed validates one matrix's position maps against the space it
// is being mapped into, which must be one an index can number: a map has
// one strictly increasing, in-range position per row (column) of m;
// without one, m must fit as it is.
func checkEmbed[V any](m *CSR[V], rowPos, colPos []int32, newRows, newCols int) error {
	if err := checkIndexRange(newRows, newCols, 0); err != nil {
		return err
	}
	if newRows < m.rows && rowPos == nil {
		return fmt.Errorf("sparse: Embed shrinks rows %d -> %d", m.rows, newRows)
	}
	if newCols < m.cols && colPos == nil {
		return fmt.Errorf("sparse: Embed shrinks cols %d -> %d", m.cols, newCols)
	}
	if rowPos != nil {
		if len(rowPos) != m.rows {
			return fmt.Errorf("sparse: Embed rowPos length %d, want %d", len(rowPos), m.rows)
		}
		if err := checkMonotone(rowPos, newRows, "rowPos"); err != nil {
			return err
		}
	}
	if colPos != nil {
		if len(colPos) != m.cols {
			return fmt.Errorf("sparse: Embed colPos length %d, want %d", len(colPos), m.cols)
		}
		if err := checkMonotone(colPos, newCols, "colPos"); err != nil {
			return err
		}
	}
	return nil
}

func checkMonotone(pos []int32, bound int, name string) error {
	for i, p := range pos {
		if p < 0 || int(p) >= bound {
			return fmt.Errorf("sparse: Embed %s[%d]=%d out of range [0,%d)", name, i, p, bound)
		}
		if i > 0 && pos[i-1] >= p {
			return fmt.Errorf("sparse: Embed %s not strictly increasing at %d", name, i)
		}
	}
	return nil
}

// ConcatRows gathers row-disjoint parts into one rows×cols matrix: row i
// of parts[k] lands at row rowPos[k][i] with its columns renumbered
// through colPos[k] — Embed's maps, one pair per part, checked the same
// way — and each stored row is copied once into an exact-size result; no
// two values ever meet, so there is no ⊕ and no operator pair to ask for.
// That rests on the parts owning disjoint rows, which is checked, not
// assumed: a row stored by two parts is refused with a *RowConflictError
// naming it (a part's EMPTY row claims nothing). One part is Embed: its
// values are shared, not copied. It is Gather.Matrix without deltas.
func ConcatRows[V any](parts []*CSR[V], rowPos, colPos [][]int32, rows, cols int) (*CSR[V], error) {
	return (&Gather[V]{Parts: parts, RowPos: rowPos, ColPos: colPos, Rows: rows, Cols: cols}).Matrix()
}

// A Gather is row-disjoint parts bound for one Rows×Cols matrix, as
// ConcatRows takes them, each optionally continued by a delta: Deltas[k],
// when Deltas holds one, spans the result's own space and holds part k's
// later contributions in runs — one cell's in their order, as
// GroupUnitRows leaves them. A run folds onto the part's value — or, where
// the part stores none, onto the run's first entry — left to right under
// Ops, and a fold equal to Zero is no entry. That is how a maintained
// adjacency continues the cells it holds with the edges appended since,
// exactly as one fold over all of them would, and the part is read through
// its maps, never embedded into a copy first. A view's fold is the gather
// of its one part, the adjacency, with its one delta. Without deltas no
// two values meet and Ops is not read.
//
// Rows are visited in order, each part's through a cursor, so the result
// is written in one pass. Disjointness is checked as in ConcatRows: a row
// two parts both emit is a *RowConflictError (a row that is empty, or
// whose every cell folds to Zero, claims nothing).
//
// Matrix writes the result whole. Pattern writes its structure alone and
// Onto lays its values onto that pattern later, by the same pass — a
// consumer that reads the values rarely pays for them only when it does.
// None of the three writes a part or a delta.
type Gather[V any] struct {
	Parts          []*CSR[V]
	RowPos, ColPos [][]int32
	Deltas         []*CSR[V] // nil, or one per part; a nil entry continues nothing
	Ops            semiring.Ops[V]
	Rows, Cols     int
}

// Matrix returns the gathered matrix, rows and values written in one
// walk into storage sized by the union count: every entry is held, with no
// slack beyond the cells that folded to Zero. One part without a delta is
// Embed's, values shared, and is the part itself when nothing moves.
func (g *Gather[V]) Matrix() (*CSR[V], error) {
	if _, err := g.check(); err != nil {
		return nil, err
	}
	if g.embeds() {
		return Embed(g.Parts[0], g.RowPos[0], g.ColPos[0], g.Rows, g.Cols)
	}
	n := g.size()
	rowPtr, colIdx, val := make([]int32, g.Rows+1), make([]int32, n), make([]V, n)
	n, err := g.walk(rowPtr, colIdx, val)
	if err != nil {
		return nil, err
	}
	return &CSR[V]{rows: g.Rows, cols: g.Cols, rowPtr: rowPtr, colIdx: colIdx[:n], val: val[:n]}, nil
}

// Pattern returns the gathered matrix's structure. One part without a
// delta is Embed's: its index arrays are shared wherever Embed shares
// them.
func (g *Gather[V]) Pattern() (*Pattern, error) {
	bound, err := g.check()
	if err != nil {
		return nil, err
	}
	if g.embeds() {
		m, err := Embed(g.Parts[0], g.RowPos[0], g.ColPos[0], g.Rows, g.Cols)
		if err != nil {
			return nil, err
		}
		return m.Pattern(), nil
	}
	rowPtr, colIdx := make([]int32, g.Rows+1), make([]int32, bound)
	n, err := g.walk(rowPtr, colIdx, nil)
	if err != nil {
		return nil, err
	}
	return &Pattern{rows: g.Rows, cols: g.Cols, rowPtr: rowPtr, colIdx: colIdx[:n:n], val: make([]struct{}, n)}, nil
}

// Onto returns the gathered matrix with its values, on p — what Pattern
// returned: the result shares p's index arrays and only the values are
// laid down. One part without a delta shares that part's values too, and
// is the part itself when nothing moves.
//
//adjlint:cow-writer
func (g *Gather[V]) Onto(p *Pattern) (*CSR[V], error) {
	bound, err := g.check()
	if err != nil {
		return nil, err
	}
	if p.rows != g.Rows || p.cols != g.Cols {
		return nil, fmt.Errorf("sparse: Gather.Onto: a %d×%d pattern for a %d×%d gather", p.rows, p.cols, g.Rows, g.Cols)
	}
	var val []V
	if g.embeds() {
		m := g.Parts[0]
		if g.RowPos[0] == nil && g.ColPos[0] == nil && g.Rows == m.rows && g.Cols == m.cols {
			return m, nil
		}
		val = m.val
	} else {
		val = make([]V, bound)
		if _, err := g.walk(nil, nil, val); err != nil {
			return nil, err
		}
	}
	if len(val) < len(p.colIdx) {
		return nil, fmt.Errorf("sparse: Gather.Onto: %d values for a pattern of %d entries", len(val), len(p.colIdx))
	}
	n := len(p.colIdx)
	return &CSR[V]{rows: p.rows, cols: p.cols, rowPtr: p.rowPtr, colIdx: p.colIdx, val: val[:n:n]}, nil
}

// embeds reports whether the gather is one part and nothing to fold:
// Embed, which shares what it can.
func (g *Gather[V]) embeds() bool {
	return len(g.Parts) == 1 && (g.Deltas == nil || g.Deltas[0] == nil)
}

// check validates the parts' maps and the deltas' shapes against the
// result's space and returns the bound on its stored entries: every
// part's plus every delta's.
func (g *Gather[V]) check() (bound int, err error) {
	k := len(g.Parts)
	if len(g.RowPos) != k || len(g.ColPos) != k || (g.Deltas != nil && len(g.Deltas) != k) {
		return 0, fmt.Errorf("sparse: Gather has %d parts, %d row maps, %d column maps and %d deltas", k, len(g.RowPos), len(g.ColPos), len(g.Deltas))
	}
	for i, m := range g.Parts {
		if err := checkEmbed(m, g.RowPos[i], g.ColPos[i], g.Rows, g.Cols); err != nil {
			return 0, fmt.Errorf("sparse: Gather part %d: %w", i, err)
		}
		bound += len(m.colIdx)
		if d := g.delta(i); d != nil {
			if d.rows != g.Rows || d.cols != g.Cols {
				return 0, fmt.Errorf("sparse: Gather part %d: a %d×%d delta for a %d×%d result", i, d.rows, d.cols, g.Rows, g.Cols)
			}
			bound += len(d.colIdx)
		}
	}
	if err := checkIndexRange(g.Rows, g.Cols, bound); err != nil {
		return 0, fmt.Errorf("sparse: Gather: %w", err)
	}
	return bound, nil
}

func (g *Gather[V]) delta(k int) *CSR[V] {
	if g.Deltas == nil {
		return nil
	}
	return g.Deltas[k]
}

// size is the union count: the entries the result holds before any fold
// is pruned — every part's, plus each delta's cells its part does not
// store. It compares columns only and applies no ⊕.
func (g *Gather[V]) size() int {
	n := 0
	for k, m := range g.Parts {
		n += len(m.colIdx)
		d := g.delta(k)
		if d == nil {
			continue
		}
		cp, i := g.ColPos[k], 0
		for r := 0; r < g.Rows; r++ {
			var p, hi int32
			if i < m.rows && rowAt(g.RowPos[k], i) == r {
				p, hi = m.rowPtr[i], m.rowPtr[i+1]
				i++
			}
			for q, qe := d.rowPtr[r], d.rowPtr[r+1]; q < qe; q = runEnd(d.colIdx, q, qe) {
				sj := d.colIdx[q]
				for p < hi && colAt(cp, m.colIdx[p]) < sj {
					p++
				}
				if p == hi || colAt(cp, m.colIdx[p]) != sj {
					n++
				}
			}
		}
	}
	return n
}

// walk writes the result's rows in order — whichever of rowPtr, colIdx
// and val it is handed, each sized to hold them — and returns the entries
// written. Row r is the part whose row lands there, merged with that
// part's delta row r.
//
//adjlint:cow-writer
func (g *Gather[V]) walk(rowPtr, colIdx []int32, val []V) (int, error) {
	next := make([]int, len(g.Parts)) // each part's next row
	at := 0
	for r := 0; r < g.Rows; r++ {
		owner := -1
		for k, m := range g.Parts {
			var lo, hi int32
			if i := next[k]; i < m.rows && rowAt(g.RowPos[k], i) == r {
				lo, hi = m.rowPtr[i], m.rowPtr[i+1]
				next[k]++
			}
			start := at
			if d := g.delta(k); d != nil && d.rowPtr[r] < d.rowPtr[r+1] {
				at = g.mergeRow(k, lo, hi, d.rowPtr[r], d.rowPtr[r+1], colIdx, val, at)
			} else {
				at = copyRow(m, lo, hi, g.ColPos[k], colIdx, val, at)
			}
			if at == start {
				continue
			}
			if owner >= 0 {
				return 0, &RowConflictError{Row: r, First: owner, Second: k}
			}
			owner = k
		}
		if rowPtr != nil {
			rowPtr[r+1] = int32(at)
		}
	}
	return at, nil
}

// copyRow writes m's entries [lo, hi) at at, their columns through cp,
// into whichever of colIdx and val is non-nil, and returns the new end.
func copyRow[V any](m *CSR[V], lo, hi int32, cp, colIdx []int32, val []V, at int) int {
	if colIdx != nil {
		dst := colIdx[at:]
		if cp == nil {
			copy(dst, m.colIdx[lo:hi])
		} else {
			for p, j := range m.colIdx[lo:hi] {
				dst[p] = cp[j]
			}
		}
	}
	if val != nil {
		copy(val[at:], m.val[lo:hi])
	}
	return at + int(hi-lo)
}

// mergeRow writes part k's entries [lo, hi) two-way merged with its
// delta's entries [q, qe) — one result row — into whichever of colIdx and
// val is non-nil, and returns the new end. It is the one place a delta's
// run is folded onto a stored cell.
func (g *Gather[V]) mergeRow(k int, lo, hi, q, qe int32, colIdx []int32, val []V, at int) int {
	m, d, cp := g.Parts[k], g.Deltas[k], g.ColPos[k]
	p := lo
	for q < qe {
		sj, j := d.colIdx[q], int32(-1)
		for ; p < hi; p++ { // the part's cells before the delta's next one
			if j = colAt(cp, m.colIdx[p]); j >= sj {
				break
			}
			if colIdx != nil {
				colIdx[at] = j
			}
			if val != nil {
				val[at] = m.val[p]
			}
			at++
		}
		end := runEnd(d.colIdx, q, qe)
		acc, from := d.val[q], q+1
		if p < hi && j == sj {
			acc, from = m.val[p], q // the part's value, continued
			p++
		}
		if s := foldRun(g.Ops, acc, d.val, from, end); !g.Ops.IsZero(s) {
			if colIdx != nil {
				colIdx[at] = sj
			}
			if val != nil {
				val[at] = s
			}
			at++
		}
		q = end
	}
	return copyRow(m, p, hi, cp, colIdx, val, at)
}

// rowAt is where row i lands under a position map; nil is the identity.
func rowAt(pos []int32, i int) int {
	if pos == nil {
		return i
	}
	return int(pos[i])
}

// colAt is where column j lands under a position map; nil is the
// identity.
func colAt(pos []int32, j int32) int32 {
	if pos == nil {
		return j
	}
	return pos[j]
}

// RowConflictError is a Gather's refusal: output row Row is stored by
// parts First and Second, so the parts are not row-disjoint and putting
// them side by side would lose one of the two rows.
type RowConflictError struct {
	Row, First, Second int
}

func (e *RowConflictError) Error() string {
	return fmt.Sprintf("sparse: Gather: row %d is stored by part %d and by part %d", e.Row, e.First, e.Second)
}

// runEnd returns the end of the run of delta entries at q that share its
// column — one cell's contributions — within the row ending at end.
func runEnd(colIdx []int32, q, end int32) int32 {
	c := colIdx[q]
	for q++; q < end && colIdx[q] == c; q++ {
	}
	return q
}

// foldRun ⊕-folds val[q:end] onto acc, left to right.
func foldRun[V any](ops semiring.Ops[V], acc V, val []V, q, end int32) V {
	for ; q < end; q++ {
		acc = ops.Add(acc, val[q])
	}
	return acc
}
