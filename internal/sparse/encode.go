package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
)

// CSR serialization as format-1 checkpoints embed it — read here, no
// longer written anywhere:
//
//	uint64 LE    rows
//	uint64 LE    cols
//	uint64 LE    nnz
//	[rows+1]u64  rowPtr
//	[nnz]u64     colIdx
//	[nnz]byte*   values, each decoded by the caller's decodeVal

// Parts returns the matrix's backing arrays — what a serializer writes.
// They are shared with the matrix (and whatever snapshots alias it) and
// must not be written.
func (m *CSR[V]) Parts() (rowPtr, colIdx []int, val []V) { return m.rowPtr, m.colIdx, m.val }

// DecodeCSR decodes a matrix in the layout above from the front of buf, returning the remaining bytes. decodeVal decodes one value
// and returns how many bytes it consumed. The result passes through
// NewCSR, so every structural invariant (monotone rowPtr, in-bounds
// strictly-increasing columns) is re-validated — a bit flip in the
// index arrays is caught here even if an outer checksum was bypassed.
func DecodeCSR[V any](buf []byte, decodeVal func(b []byte) (V, int, error)) (*CSR[V], []byte, error) {
	if len(buf) < 24 {
		return nil, nil, fmt.Errorf("sparse: CSR header truncated")
	}
	rows := binary.LittleEndian.Uint64(buf)
	cols := binary.LittleEndian.Uint64(buf[8:])
	nnz := binary.LittleEndian.Uint64(buf[16:])
	buf = buf[24:]
	if rows > math.MaxInt32 || cols > math.MaxInt32 || nnz > math.MaxUint32 {
		return nil, nil, fmt.Errorf("sparse: CSR dimensions %d×%d nnz %d out of range", rows, cols, nnz)
	}
	need := (rows + 1 + nnz) * 8
	if uint64(len(buf)) < need {
		return nil, nil, fmt.Errorf("sparse: CSR body truncated (need %d index bytes, have %d)", need, len(buf))
	}
	rowPtr := make([]int, rows+1)
	for i := range rowPtr {
		p := binary.LittleEndian.Uint64(buf[i*8:])
		if p > nnz {
			return nil, nil, fmt.Errorf("sparse: rowPtr[%d]=%d exceeds nnz %d", i, p, nnz)
		}
		rowPtr[i] = int(p)
	}
	buf = buf[(rows+1)*8:]
	colIdx := make([]int, nnz)
	for i := range colIdx {
		j := binary.LittleEndian.Uint64(buf[i*8:])
		if j >= cols {
			return nil, nil, fmt.Errorf("sparse: colIdx[%d]=%d exceeds cols %d", i, j, cols)
		}
		colIdx[i] = int(j)
	}
	buf = buf[nnz*8:]
	val := make([]V, nnz)
	for i := range val {
		v, n, err := decodeVal(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("sparse: CSR value %d: %w", i, err)
		}
		val[i] = v
		buf = buf[n:]
	}
	m, err := NewCSR(int(rows), int(cols), rowPtr, colIdx, val)
	if err != nil {
		return nil, nil, err
	}
	return m, buf, nil
}
