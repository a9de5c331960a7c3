package sparse

import (
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

// appendBinary writes the layout DecodeCSR reads (format-1 checkpoints
// embed it; nothing writes it any more).
func appendBinary(dst []byte, m *CSR[float64]) []byte {
	rowPtr, colIdx, val := m.Parts()
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Rows()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Cols()))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(colIdx)))
	for _, p := range rowPtr {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p))
	}
	for _, j := range colIdx {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(j))
	}
	for _, v := range val {
		dst = appendF64(dst, v)
	}
	return dst
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
		buf := appendBinary([]byte("hdr"), m)
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

func TestDecodeCSRRejectsDamage(t *testing.T) {
	clean := appendBinary(nil, testMatrix(t))
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
