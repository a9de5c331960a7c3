package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func decodeF64(b []byte) (float64, int, error) {
	if len(b) < 8 {
		return 0, 0, fmt.Errorf("short float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), 8, nil
}

func testMatrix(t *testing.T) *CSR[float64] {
	t.Helper()
	m, err := NewCSR(4, 5,
		[]int{0, 2, 2, 5, 6},
		[]int{0, 3, 1, 2, 4, 0},
		[]float64{1.5, -2, 3, 0.25, 7, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCSRBinaryRoundTrip(t *testing.T) {
	for _, m := range []*CSR[float64]{testMatrix(t), Empty[float64](0, 0), Empty[float64](3, 7)} {
		buf := m.AppendBinary([]byte("hdr"), appendF64)
		got, rest, err := DecodeCSR(buf[3:], decodeF64)
		if err != nil {
			t.Fatalf("DecodeCSR: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !Equal(m, got, func(a, b float64) bool { return a == b }) {
			t.Fatalf("round trip changed the matrix (%d×%d nnz %d)", m.Rows(), m.Cols(), m.NNZ())
		}
	}
}

// AppendUnitRowsBinary must write exactly the bytes AppendBinary writes
// for the unit-row matrix it describes (empty log included).
func TestAppendUnitRowsBinaryMatchesAppendBinary(t *testing.T) {
	pos := []int32{2, -1, 0, 1} // id → column; id 1 is not in the universe
	for _, ids := range [][]int32{{0, 2, 3, 2, 0}, {}} {
		vals := []float64{1.5, -2, 3, 0.25, 7}[:len(ids)]
		rowPtr, colIdx := make([]int, len(ids)+1), make([]int, len(ids))
		for i, id := range ids {
			rowPtr[i+1], colIdx[i] = i+1, int(pos[id])
		}
		m, err := NewCSR(len(ids), 3, rowPtr, colIdx, vals)
		if err != nil {
			t.Fatal(err)
		}
		want := m.AppendBinary([]byte("hdr"), appendF64)
		got := AppendUnitRowsBinary([]byte("hdr"), 3, ids, pos, vals, appendF64)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d rows: unit-row encoding differs from AppendBinary", len(ids))
		}
	}
}

func TestDecodeCSRRejectsDamage(t *testing.T) {
	clean := testMatrix(t).AppendBinary(nil, appendF64)
	cases := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:10] }},
		{"truncated-index", func(b []byte) []byte { return b[:30] }},
		{"truncated-values", func(b []byte) []byte { return b[:len(b)-3] }},
		{"rowptr-over-nnz", func(b []byte) []byte { b[24] = 0xff; return b }},
		{"rowptr-nonmonotone", func(b []byte) []byte {
			// rowPtr[1]=2 → 3 while rowPtr[2] stays 2: monotonicity breaks.
			b[24+8] = 3
			return b
		}},
		{"colidx-out-of-range", func(b []byte) []byte { b[24+5*8] = 0xee; return b }},
		{"colidx-not-increasing", func(b []byte) []byte {
			// Row 2's columns are 1,2,4 at colIdx[2..4]; make the pair equal.
			b[24+5*8+3*8] = 1
			return b
		}},
		{"dims-absurd", func(b []byte) []byte { b[7] = 0xff; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mut(append([]byte(nil), clean...))
			if _, _, err := DecodeCSR(buf, decodeF64); err == nil {
				t.Fatal("damaged CSR dump decoded without error")
			}
		})
	}
}
