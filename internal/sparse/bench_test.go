package sparse

// Engine-level benchmarks. The repo-root bench_test.go measures the
// same engine on graph-shaped workloads; these operate directly on
// random CSRs so the effects are isolated from incidence construction.

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/semiring"
)

// benchMatrices builds an (n×n)·(n×n) multiplication workload with the
// given density.
func benchMatrices(n int, density float64) (*CSR[float64], *CSR[float64]) {
	r := rand.New(rand.NewSource(99))
	return randomCSR(r, n, n, density), randomCSR(r, n, n, density)
}

// incidenceWorkload builds the adjacency-construction multiplication
// shape Eoutᵀ·Ein without importing the dataset package (which would
// cycle): n vertices, n·ef edges with power-law-biased endpoints, Eoutᵀ
// as the n×(n·ef) left operand and Ein as the (n·ef)×n right operand
// whose rows hold exactly one entry each.
func incidenceWorkload(n, ef int) (*CSR[float64], *CSR[float64]) {
	r := rand.New(rand.NewSource(37))
	edges := n * ef
	pick := func() int { // quadratic bias toward low vertex ids
		f := r.Float64()
		return int(f * f * float64(n))
	}
	cooA := NewCOO[float64](n, edges)
	cooB := NewCOO[float64](edges, n)
	for e := 0; e < edges; e++ {
		cooA.MustAppend(pick(), e, 1)
		cooB.MustAppend(e, pick(), 1)
	}
	return cooA.ToCSR(nil), cooB.ToCSR(nil)
}

// BenchmarkMxm times the engine serial and at 2 workers against the
// merge reference, on random squares and on the adjacency-construction
// shape of the root BenchmarkConstructionScaling. (The masked arms are
// BenchmarkMulMaskedParallel; the append-grown legacy/gustavson/hash
// kernels this benchmark used to carry left their last numbers in
// CHANGES.md, PR 13.)
func BenchmarkMxm(b *testing.B) {
	type workload struct {
		name string
		a, c *CSR[float64]
	}
	var ws []workload
	for _, n := range []int{256, 1024} {
		a, c := benchMatrices(n, 16.0/float64(n)) // ~16 nnz per row
		ws = append(ws, workload{fmt.Sprintf("n%d", n), a, c})
	}
	for _, scale := range []uint{10, 12} {
		a, c := incidenceWorkload(1<<scale, 8)
		ws = append(ws, workload{fmt.Sprintf("incidence-s%d", scale), a, c})
	}
	ops := semiring.PlusTimes()
	for _, w := range ws {
		for _, arm := range []struct {
			name string
			opt  MxmOptions
		}{{"mxm", MxmOptions{}}, {"mxm-w2", MxmOptions{Workers: 2}}} {
			b.Run(w.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Mxm(nil, w.a, w.c, ops, arm.opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(w.name+"/merge", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MulMerge(w.a, w.c, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation — adaptive dense flag-scan emission vs always sorting the
// touched list. adaptiveSpanFactor = 0 forces the sort path for every
// row, which is the pre-adaptive behaviour.
func BenchmarkAdaptiveVsSort(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		n       int
		density float64
	}{
		{"dense-rows", 512, 0.08},      // wide overlap: scan path wins
		{"hypersparse", 4096, 0.00049}, // ~2 nnz/row: sort path retained
	} {
		a, c := benchMatrices(cfg.n, cfg.density)
		ops := semiring.PlusTimes()
		b.Run(cfg.name+"/sort-always", func(b *testing.B) {
			old := adaptiveSpanFactor
			adaptiveSpanFactor = 0
			defer func() { adaptiveSpanFactor = old }()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mxm(a, c, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.name+"/adaptive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mxm(a, c, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelFlopFloor is the serial-fallback ablation: the same
// small product run with the fallback disabled (always-parallel, the
// pre-threshold behaviour) against the default floor, across sizes that
// straddle DefaultParallelFlopFloor. On any machine the sub-floor sizes
// should show floor≈serial and always-parallel paying goroutine
// overhead; that gap is what the threshold eliminates.
func BenchmarkParallelFlopFloor(b *testing.B) {
	ops := semiring.PlusTimes()
	for _, n := range []int{128, 512, 2048} {
		a, c := incidenceWorkload(n, 8)
		for _, cfg := range []struct {
			name  string
			floor int64
		}{{"always-parallel", -1}, {"default-floor", 0}, {"serial", 1 << 62}} {
			b.Run(fmt.Sprintf("n%d/%s", n, cfg.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Mxm(nil, a, c, ops, MxmOptions{Workers: 4, FlopFloor: cfg.floor}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// rmatUnitRows samples edges·2^scale edges of a 2^scale-vertex R-MAT
// graph (Graph500 partition probabilities; parallel edges and self-loops
// kept) as the unit-row incidence pair Eout, Ein of Definition I.4, with
// weights drawn from [1, 9).
func rmatUnitRows(tb testing.TB, scale, edgeFactor int) (eout, ein *CSR[float64]) {
	r := rand.New(rand.NewSource(41))
	n, m := 1<<scale, edgeFactor<<scale
	rowPtr := make([]int32, m+1)
	src, dst := make([]int32, m), make([]int32, m)
	out, in := make([]float64, m), make([]float64, m)
	for e := 0; e < m; e++ {
		rowPtr[e+1] = int32(e + 1)
		for bit := int32(n >> 1); bit >= 1; bit >>= 1 {
			switch p := r.Float64(); {
			case p < 0.57:
			case p < 0.76:
				dst[e] += bit
			case p < 0.95:
				src[e] += bit
			default:
				src[e] += bit
				dst[e] += bit
			}
		}
		out[e], in[e] = float64(1+r.Intn(8)), float64(1+r.Intn(8))
	}
	eout, err := NewCSR(m, n, rowPtr, src, out)
	if err != nil {
		tb.Fatal(err)
	}
	ein, err = NewCSR(m, n, rowPtr, dst, in)
	if err != nil {
		tb.Fatal(err)
	}
	return eout, ein
}

// BenchmarkFoldUnitRows times graph construction both ways on one
// unit-row R-MAT pair: the fold of the two column arrays, and the
// general engine on (Eoutᵀ, Ein) with the transpose it needs.
func BenchmarkFoldUnitRows(b *testing.B) {
	eout, ein := rmatUnitRows(b, 12, 16)
	for _, ops := range []semiring.Ops[float64]{semiring.PlusTimes(), semiring.MaxMin()} {
		for _, workers := range []int{1, 2} {
			opt := MxmOptions{Workers: workers}
			b.Run(fmt.Sprintf("%s/fold-w%d", ops.Name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := FoldUnitRows(eout.cols, ein.cols, eout.colIdx, ein.colIdx, eout.val, ein.val, ops, opt, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/mxm-w%d", ops.Name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Mxm(nil, TransposeParallel(eout, workers), ein, ops, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
