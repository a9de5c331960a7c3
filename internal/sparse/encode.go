package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
)

// CSR serialization — the flat layout checkpoints use:
//
//	uint64 LE    rows
//	uint64 LE    cols
//	uint64 LE    nnz
//	[rows+1]u64  rowPtr
//	[nnz]u64     colIdx
//	[nnz]byte*   values, each encoded by the caller's appendVal
//
// Indices are fixed-width so the layout stays mmap-friendly (every
// array is locatable from the header without scanning); values go
// through a codec because V is a type parameter.

// AppendBinary appends the matrix's serialized form to dst. appendVal
// encodes one value (e.g. 8 bytes of IEEE-754 for float64).
func (m *CSR[V]) AppendBinary(dst []byte, appendVal func(dst []byte, v V) []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.rows))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.cols))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(m.colIdx)))
	for _, p := range m.rowPtr {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p))
	}
	for _, j := range m.colIdx {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(j))
	}
	for _, v := range m.val {
		dst = appendVal(dst, v)
	}
	return dst
}

// AppendUnitRowsBinary appends the serialized form of the len(ids)×cols
// matrix whose row i holds the single entry vals[i] in column
// pos[ids[i]] — byte for byte what AppendBinary writes for that matrix,
// without building it. It is how an incidence log kept as one vertex id
// per edge reaches a checkpoint in column-position space.
func AppendUnitRowsBinary[V any](dst []byte, cols int, ids, pos []int32, vals []V, appendVal func(dst []byte, v V) []byte) []byte {
	n := len(ids)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(cols))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
	for i := 0; i <= n; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
	}
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(pos[id]))
	}
	for _, v := range vals[:n] {
		dst = appendVal(dst, v)
	}
	return dst
}

// DecodeCSR decodes a matrix serialized by AppendBinary from the front
// of buf, returning the remaining bytes. decodeVal decodes one value
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
