package sparse

import (
	"strings"
	"testing"
)

// Validate must accept everything the constructors build and reject
// every class of structural corruption. Corrupt matrices are assembled
// by poking unexported fields directly — NewCSR (correctly) refuses to
// build them.
func TestValidate(t *testing.T) {
	good, err := NewCSR(2, 3, []int32{0, 2, 3}, []int32{0, 2, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	if err := Empty[float64](4, 4).Validate(); err != nil {
		t.Errorf("empty matrix rejected: %v", err)
	}

	cases := []struct {
		name string
		m    CSR[float64]
		want string
	}{
		{
			name: "rowPtr length",
			m:    CSR[float64]{rows: 2, cols: 2, rowPtr: []int32{0, 0}},
			want: "rowPtr length",
		},
		{
			name: "non-monotone rowPtr",
			m: CSR[float64]{rows: 2, cols: 2, rowPtr: []int32{0, 2, 1},
				colIdx: []int32{0}, val: []float64{1}},
			want: "not monotone",
		},
		{
			name: "column out of range",
			m: CSR[float64]{rows: 1, cols: 2, rowPtr: []int32{0, 1},
				colIdx: []int32{5}, val: []float64{1}},
			want: "out of range",
		},
		{
			name: "columns not increasing",
			m: CSR[float64]{rows: 1, cols: 3, rowPtr: []int32{0, 2},
				colIdx: []int32{1, 1}, val: []float64{1, 2}},
			want: "not strictly increasing",
		},
		{
			name: "val length mismatch",
			m: CSR[float64]{rows: 1, cols: 2, rowPtr: []int32{0, 1},
				colIdx: []int32{0}, val: nil},
			want: "inconsistent nnz",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.m.Validate()
			if err == nil {
				t.Fatal("corruption accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
