package sparse_test

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/keys"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
	"adjarray/internal/value"
)

// The unit-row fold is held to the general engine on (Eoutᵀ, Ein) — and,
// where Theorem II.1 lets the dense Definition I.3 oracle speak, to the
// oracle — over every registry pair on its adversarial sample (NaN, ±Inf
// and signed zero make + order-sensitive; first.* is non-commutative),
// plus a−b, which is neither commutative nor associative.

// foldCase is n contributions over a rows×cols output.
type foldCase struct {
	name       string
	rows, cols int
	row, col   []int32
	out, in    []float64
	skipDense  bool // the oracle is O(rows·n·cols)
}

func subtractOps() semiring.Ops[float64] {
	return semiring.Ops[float64]{
		Name: "a-b",
		Add:  func(a, b float64) float64 { return a - b },
		Mul:  func(a, b float64) float64 { return a * b },
		Zero: 0, One: 1,
		Equal: value.Float64Equal,
	}
}

// foldCases draws the shapes the kernel branches on; weights come from
// pool, which holds no value equal to the algebra's zero unless the case
// says so.
func foldCases(r *rand.Rand, pool []float64, zero float64) []foldCase {
	w := func() float64 { return pool[r.Intn(len(pool))] }
	mk := func(name string, rows, cols, n int, at func(k int) (int, int)) foldCase {
		c := foldCase{name: name, rows: rows, cols: cols}
		for k := 0; k < n; k++ {
			i, j := at(k)
			c.row, c.col = append(c.row, int32(i)), append(c.col, int32(j))
			c.out, c.in = append(c.out, w()), append(c.in, w())
		}
		return c
	}
	cases := []foldCase{
		mk("empty", 5, 4, 0, nil),
		mk("no-rows", 0, 0, 0, nil),
		// Every edge in row 3: a dense hub (scan emission) and a sparse
		// one over a wide span (sorted emission).
		mk("hub-dense", 6, 12, 90, func(int) (int, int) { return 3, r.Intn(12) }),
		mk("hub-wide", 6, 4000, 40, func(int) (int, int) { return 3, r.Intn(4000) }),
		mk("one-cell", 4, 4, 50, func(int) (int, int) { return 2, 1 }),
		// Rows on both sides of the short-row limit, duplicates in each.
		mk("mixed", 12, 9, 160, func(int) (int, int) { i := r.Intn(12); return i * i / 12, r.Intn(9) }),
		mk("short-rows", 64, 64, 120, func(int) (int, int) { return r.Intn(64), r.Intn(64) }),
	}
	zeros := mk("explicit-zeros", 8, 8, 60, func(int) (int, int) { return r.Intn(8), r.Intn(8) })
	for k := range zeros.out {
		switch r.Intn(4) {
		case 0:
			zeros.out[k] = zero
		case 1:
			zeros.in[k] = zero
		}
	}
	big := mk("past-2^31-cells", 50_000, 50_000, 300, func(k int) (int, int) {
		if k%3 == 0 {
			return 49_999, 49_999 - r.Intn(3)
		}
		return r.Intn(50_000), r.Intn(50_000)
	})
	big.skipDense = true
	return append(cases, zeros, big)
}

var keySets = map[string]*keys.Set{}

// keySet returns the n keys prefix000000, prefix000001, … (the same Set
// for the same arguments; tests here run one at a time).
func keySet(prefix string, n int) *keys.Set {
	name := fmt.Sprint(prefix, n)
	if s, ok := keySets[name]; ok {
		return s
	}
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("%s%06d", prefix, i)
	}
	s, err := keys.FromSorted(ks)
	if err != nil {
		panic(err)
	}
	keySets[name] = s
	return s
}

// incidence returns the case as the unit-row pair Eout, Ein.
func (c foldCase) incidence(t *testing.T) (eout, ein *sparse.CSR[float64]) {
	t.Helper()
	rowPtr := make([]int32, len(c.row)+1)
	for i := range rowPtr {
		rowPtr[i] = int32(i)
	}
	eout, err := sparse.NewCSR(len(c.row), c.rows, rowPtr, c.row, c.out)
	if err != nil {
		t.Fatal(err)
	}
	ein, err = sparse.NewCSR(len(c.col), c.cols, rowPtr, c.col, c.in)
	if err != nil {
		t.Fatal(err)
	}
	if !eout.UnitRows() || !ein.UnitRows() {
		t.Fatal("NewCSR did not record the unit rows")
	}
	return eout, ein
}

func TestFoldUnitRowsMatchesMxmAndOracle(t *testing.T) {
	type algebra struct {
		ops    semiring.Ops[float64]
		sample []float64
	}
	var algebras []algebra
	for _, e := range semiring.Registry() {
		algebras = append(algebras, algebra{e.Ops, e.Sample}, algebra{e.Ops.Rename(e.Name + "/adversarial"), e.AdversarialSample()})
	}
	algebras = append(algebras, algebra{subtractOps(), []float64{0, 1, 2, 3, 0.5, -2}})
	oracles := 0
	defer func() {
		if oracles < 5 {
			t.Errorf("only %d algebras were held to the dense oracle", oracles)
		}
	}()
	for _, alg := range algebras {
		ops := alg.ops
		var pool []float64
		for _, v := range alg.sample {
			if !ops.IsZero(v) {
				pool = append(pool, v)
			}
		}
		rep := semiring.Check(ops, alg.sample, value.FormatFloat)
		oracle := rep.TheoremII1() && rep.AddIdentity.Holds
		if oracle {
			oracles++
		}
		for _, c := range foldCases(rand.New(rand.NewSource(17)), pool, ops.Zero) {
			t.Run(ops.Name+"/"+c.name, func(t *testing.T) {
				eout, ein := c.incidence(t)
				rowKeys, colKeys := keySet("r", c.rows), keySet("c", c.cols)
				wrap := func(m *sparse.CSR[float64], err error) *assoc.Array[float64] {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					a, err := assoc.New(rowKeys, colKeys, m)
					if err != nil {
						t.Fatal(err)
					}
					if err := a.Validate(); err != nil {
						t.Fatalf("invalid structure: %v", err)
					}
					return a
				}
				mxm := wrap(sparse.Mxm(nil, eout.Transpose(), ein, ops, sparse.MxmOptions{}))
				for _, workers := range []int{1, 2, 4} {
					opt := sparse.MxmOptions{Workers: workers, FlopFloor: -1}
					fold := wrap(sparse.FoldUnitRows(c.rows, c.cols, c.row, c.col, c.out, c.in, ops, opt, nil))
					if d := assoc.Diff(mxm, fold, ops.Equal, value.FormatFloat); d != "" {
						t.Fatalf("workers %d: fold differs from Mxm: %s", workers, d)
					}
					// The products handed over instead of the factors, into
					// scratch a second fold reuses.
					prod := make([]float64, len(c.out))
					for k := range prod {
						prod[k] = ops.Mul(c.out[k], c.in[k])
					}
					var scr sparse.FoldScratch[float64]
					for pass := 0; pass < 2; pass++ {
						pre := wrap(sparse.FoldUnitRows(c.rows, c.cols, c.row, c.col, prod, nil, ops, opt, &scr))
						if d := assoc.Diff(mxm, pre, ops.Equal, value.FormatFloat); d != "" {
							t.Fatalf("workers %d, pass %d: fold of products into scratch differs from Mxm: %s", workers, pass, d)
						}
					}
				}
				if c.skipDense {
					return
				}
				dense := wrap(sparse.MulDense(eout.Transpose(), ein, ops))
				fold := wrap(sparse.FoldUnitRows(c.rows, c.cols, c.row, c.col, c.out, c.in, ops, sparse.MxmOptions{}, nil))
				want := assoc.Diff(dense, mxm, ops.Equal, value.FormatFloat)
				got := assoc.Diff(dense, fold, ops.Equal, value.FormatFloat)
				// Where Theorem II.1 fails on the data the sparse product may
				// leave the oracle — through both engines alike.
				if got != want {
					t.Fatalf("against the dense oracle the fold reads %q, Mxm %q", got, want)
				}
				if oracle && c.name != "explicit-zeros" && got != "" {
					t.Fatalf("Theorem II.1 holds on the sample, yet the fold differs from the dense oracle: %s", got)
				}
			})
		}
	}
}

// Cells whose contributions cancel are pruned at emission, as Mxm prunes
// them: +1 and −1 under +.* leave no entry, in a short row and in a hub
// row alike.
func TestFoldUnitRowsPrunesZeroFolds(t *testing.T) {
	ops := semiring.PlusTimes()
	for _, n := range []int{4, 40} { // per row: below and above the short-row limit
		var row, col []int32
		var out, in []float64
		for k := 0; k < n; k++ {
			row, col = append(row, 1, 1), append(col, int32(k%7), int32(k%7))
			out, in = append(out, 1, -1), append(in, 1, 1)
		}
		row, col, out, in = append(row, 1), append(col, 9), append(out, 3), append(in, 2)
		m, err := sparse.FoldUnitRows(3, 10, row, col, out, in, ops, sparse.MxmOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if v, ok := m.At(1, 9); m.NNZ() != 1 || !ok || v != 6 {
			t.Fatalf("%d cancelling pairs: %d entries stored, (1,9) = %v (stored=%v); want the single entry 6", n, m.NNZ(), v, ok)
		}
	}
}

func TestFoldUnitRowsRejectsBadInput(t *testing.T) {
	ops := semiring.PlusTimes()
	one := []float64{1}
	for name, call := range map[string]func() (*sparse.CSR[float64], error){
		"row out of range": func() (*sparse.CSR[float64], error) {
			return sparse.FoldUnitRows(2, 2, []int32{2}, []int32{0}, one, one, ops, sparse.MxmOptions{}, nil)
		},
		"negative row": func() (*sparse.CSR[float64], error) {
			return sparse.FoldUnitRows(2, 2, []int32{-1}, []int32{0}, one, one, ops, sparse.MxmOptions{}, nil)
		},
		"column out of range": func() (*sparse.CSR[float64], error) {
			return sparse.FoldUnitRows(2, 2, []int32{0}, []int32{2}, one, nil, ops, sparse.MxmOptions{}, nil)
		},
		"length mismatch": func() (*sparse.CSR[float64], error) {
			return sparse.FoldUnitRows(2, 2, []int32{0, 1}, []int32{0}, one, one, ops, sparse.MxmOptions{}, nil)
		},
		"value mismatch": func() (*sparse.CSR[float64], error) {
			return sparse.FoldUnitRows(2, 2, []int32{0}, []int32{0}, one, []float64{1, 2}, ops, sparse.MxmOptions{}, nil)
		},
	} {
		if m, err := call(); err == nil {
			t.Errorf("%s: accepted, %d entries", name, m.NNZ())
		}
	}
}

// The unit-row mark is set where rowPtr is walked, survives the
// structure-preserving operations, and is never set on anything else.
func TestUnitRowsIsRecorded(t *testing.T) {
	unit, err := sparse.NewCSR(3, 4, []int32{0, 1, 2, 3}, []int32{2, 0, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := unit.ExtractRows([]int32{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	all, err := unit.ExtractCols([]int32{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := unit.ExtractCols([]int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	coo := sparse.NewCOO[float64](2, 2)
	coo.MustAppend(1, 0, 5)
	coo.MustAppend(0, 1, 6)
	two, err := sparse.NewCSR(2, 3, []int32{0, 2, 2}, []int32{0, 1}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	gap, err := sparse.NewCSR(3, 3, []int32{0, 1, 1, 2}, []int32{0, 1}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		m    *sparse.CSR[float64]
		want bool
	}{
		"NewCSR": {unit, true}, "ExtractRows": {sub, true}, "ExtractCols keeping all": {all, true},
		"ExtractCols dropping entries": {dropped, false}, "Clone": {unit.Clone(), true},
		"COO": {coo.ToCSR(nil), true}, "two-entry row": {two, false}, "empty row": {gap, false},
		"Transpose": {unit.Transpose(), false}, "no rows": {sparse.Empty[float64](0, 3), false},
	} {
		if got := c.m.UnitRows(); got != c.want {
			t.Errorf("%s: UnitRows() = %v, want %v", name, got, c.want)
		}
	}
}
