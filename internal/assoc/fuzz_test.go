package assoc

import (
	"testing"

	"adjarray/internal/keys"
	"adjarray/internal/semiring"
)

// FuzzMulAlignment builds A and B from the fuzz bytes over small,
// overlapping key alphabets — A's columns and B's rows are both drawn
// from k0…k7, so the shared dimension holds keys on both sides, on one
// side, stored or merely in a key set — and holds Mul, for every
// registered operator pair, serial and on two workers, to Mul over the
// operands intersected by string first, bit for bit.
//
// The first two bytes add keys with no stored entry to A's columns and
// B's rows, one bit per key; each following triple of bytes is an entry:
// side and row, column, and the index of its value in the pair's non-zero
// adversarial sample.
func FuzzMulAlignment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 3, 8, 1, 0})
	f.Add([]byte{0x81, 0x18, 0, 2, 0, 4, 4, 1, 9, 3, 2, 13, 5, 3})
	f.Add([]byte{0xff, 0xff, 1, 7, 2, 10, 6, 1, 3, 1, 4, 11, 2, 5, 2, 3, 6})
	inner := func(i byte) string { return "k" + string('0'+rune(i%8)) }
	f.Fuzz(func(t *testing.T, data []byte) {
		var extraA, extraB byte
		if len(data) >= 2 {
			extraA, extraB, data = data[0], data[1], data[2:]
		}
		for _, entry := range semiring.Registry() {
			ops := entry.Ops
			var weights []float64
			for _, v := range entry.AdversarialSample() {
				if !ops.IsZero(v) {
					weights = append(weights, v)
				}
			}
			var at, bt []Triple[float64]
			for i := 0; i+2 < len(data); i += 3 {
				side, row, col := data[i], data[i]>>1, data[i+1]
				val := weights[int(data[i+2])%len(weights)]
				if side&1 == 0 {
					at = append(at, Triple[float64]{Row: "r" + string('0'+rune(row%4)), Col: inner(col), Val: val})
				} else {
					bt = append(bt, Triple[float64]{Row: inner(row), Col: "c" + string('0'+rune(col%4)), Val: val})
				}
			}
			a := withExtraKeys(t, FromTriples(at, nil), extraA, false)
			b := withExtraKeys(t, FromTriples(bt, nil), extraB, true)
			for _, opt := range []MulOptions{{}, {Workers: 2, FlopFloor: -1}} {
				if d := mulAgainstIntersectFirst(t, a, b, ops, opt); d != "" {
					t.Fatalf("%s, %+v: %s\nA = %v\nB = %v", entry.Name, opt, d, at, bt)
				}
			}
		}
	})
}

// withExtraKeys reindexes a into key sets grown, on its inner side (A's
// columns, or B's rows when rowSide), by the keys k0…k7 whose bit is set
// in mask.
func withExtraKeys(t *testing.T, a *Array[float64], mask byte, rowSide bool) *Array[float64] {
	t.Helper()
	var extra []string
	for i := 0; i < 8; i++ {
		if mask&(1<<i) != 0 {
			extra = append(extra, "k"+string('0'+rune(i)))
		}
	}
	rows, cols := a.rows, a.cols
	if rowSide {
		rows = unionKeys(rows, keys.New(extra...))
	} else {
		cols = unionKeys(cols, keys.New(extra...))
	}
	out, err := a.Reindex(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
