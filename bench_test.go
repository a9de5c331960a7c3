package adjarray_test

// bench_test.go — the benchmark harness regenerating every figure and
// experiment of the paper, plus ablations of the design choices. Each
// experiment's benchmark opens with an `// E<n> —` comment naming the
// figure, theorem or section it reproduces (E1–E11); each ablation's
// opens with `// Ablation —`. Run with:
//
//	go test -bench=. -benchmem
//
// The paper's evaluation is exact array contents rather than timings,
// so the Figure benches both regenerate the artifact each iteration
// and assert it still matches the paper (a mismatch fails the bench).

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray"
	"adjarray/internal/algo"
	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/sparse"
	"adjarray/internal/value"
)

// E1 — Figure 1: dense table → exploded sparse incidence array.
func BenchmarkFigure1Explode(b *testing.B) {
	table := dataset.MusicTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := assoc.Explode(table, assoc.ExplodeOptions{})
		if err != nil || e.NNZ() != 186 {
			b.Fatalf("explode: %v nnz=%d", err, e.NNZ())
		}
	}
}

// E2 — Figure 2: Matlab-style sub-array selection.
func BenchmarkFigure2Subarray(b *testing.B) {
	e := dataset.MusicIncidence()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e1, err := e.SubRefExpr(":", "Genre|A : Genre|Z")
		if err != nil || e1.NNZ() != 30 {
			b.Fatal("E1 selection wrong")
		}
		e2, err := e.SubRefExpr(":", "Writer|A : Writer|Z")
		if err != nil || e2.NNZ() != 45 {
			b.Fatal("E2 selection wrong")
		}
	}
}

// E3 — Figure 3: the seven operator-pair correlations, checked against
// the paper each iteration.
func BenchmarkFigure3Semirings(b *testing.B) {
	e1, e2 := dataset.MusicE1E2()
	expected := dataset.Figure3Expected()
	for _, ops := range semiring.Figure3Pairs() {
		ops := ops
		b.Run(ops.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := assoc.Correlate(e1, e2, ops, assoc.MulOptions{})
				if err != nil || !got.Equal(expected[ops.Name], value.Float64Equal) {
					b.Fatalf("%s does not match the paper", ops.Name)
				}
			}
		})
	}
}

// E4 — Figure 4: value re-weighting of E1.
func BenchmarkFigure4Reweight(b *testing.B) {
	e1, _ := dataset.MusicE1E2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := e1.Map(func(_, col string, v float64) float64 {
			switch col {
			case dataset.GenrePop:
				return 2
			case dataset.GenreRock:
				return 3
			default:
				return 1
			}
		})
		if w.NNZ() != 30 {
			b.Fatal("reweight changed pattern")
		}
	}
}

// E5 — Figure 5: correlations with diverse weights, checked against the
// paper each iteration.
func BenchmarkFigure5Semirings(b *testing.B) {
	e1w := dataset.MusicE1Weighted()
	_, e2 := dataset.MusicE1E2()
	expected := dataset.Figure5Expected()
	for _, ops := range semiring.Figure3Pairs() {
		ops := ops
		b.Run(ops.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := assoc.Correlate(e1w, e2, ops, assoc.MulOptions{})
				if err != nil || !got.Equal(expected[ops.Name], value.Float64Equal) {
					b.Fatalf("%s does not match the paper", ops.Name)
				}
			}
		})
	}
}

// E6 — Theorem II.1 forward direction: full verification (dense oracle
// + sparse kernel + Definition I.5 check) on a random graph.
func BenchmarkTheoremForward(b *testing.B) {
	g := dataset.ErdosRenyi(rand.New(rand.NewSource(1)), 48, 0.05)
	for _, name := range []string{"+.*", "max.min"} {
		e, _ := semiring.Lookup(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := graph.VerifyConstruction(g, e.Ops, graph.Weights[float64]{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E7 — Theorem II.1 converse: witness search plus gadget demonstration
// for the non-compliant algebras.
func BenchmarkTheoremGadgets(b *testing.B) {
	entries := []string{"max.+@0", "real+.real*"}
	for _, name := range entries {
		e, _ := semiring.Lookup(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := graph.FindViolation(e.Ops, e.Sample); v == nil {
					b.Fatalf("%s: no violation found", name)
				}
			}
		})
	}
}

// E8 — Corollary III.1: reverse-graph adjacency construction.
func BenchmarkReverseGraph(b *testing.B) {
	g := dataset.ErdosRenyi(rand.New(rand.NewSource(2)), 48, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := graph.VerifyReverse(g, semiring.PlusTimes(), graph.Weights[float64]{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E9 — Section III classification of all built-in algebras.
func BenchmarkClassifyAlgebras(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := semiring.Classify()
		if len(rows) < 15 {
			b.Fatal("classification shrank")
		}
	}
}

// E10 — Section III set-valued correlation over the document corpus.
func BenchmarkDocWordsUnionIntersect(b *testing.B) {
	corpus := dataset.DocCorpus()
	e := dataset.SharedWordIncidence(corpus)
	var universe value.Set
	for _, d := range corpus {
		universe = universe.Union(d.Words)
	}
	ops := semiring.PowerSet(universe)
	want := dataset.SharedWordsExpected(corpus)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := assoc.Correlate(e, e, ops, assoc.MulOptions{})
		if err != nil || !got.Equal(want, func(x, y value.Set) bool { return x.Equal(y) }) {
			b.Fatal("∪.∩ correlation mismatch")
		}
	}
}

// engineArms runs the engine serial and at 2 workers, and the merge
// reference, over one product.
func engineArms(b *testing.B, name string, a, c *sparse.CSR[float64]) {
	ops := semiring.PlusTimes()
	for _, arm := range []struct {
		name string
		fn   func() error
	}{
		{"mxm", func() error { _, err := sparse.Mxm(a, c, ops, sparse.MxmOptions{}); return err }},
		{"mxm-w2", func() error { _, err := sparse.Mxm(a, c, ops, sparse.MxmOptions{Workers: 2}); return err }},
		{"merge", func() error { _, err := sparse.MulMerge(a, c, ops); return err }},
	} {
		b.Run(name+"/"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := arm.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E11 — construction scaling across workload sizes.
func BenchmarkConstructionScaling(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		g := dataset.RMAT(rand.New(rand.NewSource(3)), scale, 8)
		one := func(graph.Edge) float64 { return 1 }
		eout, ein, err := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one})
		if err != nil {
			b.Fatal(err)
		}
		engineArms(b, fmt.Sprintf("rmat-s%d", scale), eout.Transpose().Matrix(), ein.Matrix())
	}
}

// The engine against the merge reference on two workload shapes per
// scale: "rmat-sN" is the construction product Eoutᵀ·Ein (one flop per
// edge — memory-latency bound), and "rmat-sN-2hop" is the downstream
// A·Aᵀ product (flops ≫ nnz); the s12 cases are the large ones. The
// legacy/gustavson/hash arms this benchmark carried until PR 13 left
// their last numbers in CHANGES.md.
func BenchmarkSpGEMMVariants(b *testing.B) {
	for _, cfg := range []struct {
		scale int
		hop2  bool
	}{{10, false}, {10, true}, {12, false}, {12, true}} {
		g := dataset.RMAT(rand.New(rand.NewSource(4)), cfg.scale, 8)
		one := func(graph.Edge) float64 { return 1 }
		eout, ein, _ := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one})
		a := eout.Transpose().Matrix()
		c := ein.Matrix()
		name := fmt.Sprintf("rmat-s%d", cfg.scale)
		if cfg.hop2 {
			adj, err := sparse.Mxm(a, c, semiring.PlusTimes(), sparse.MxmOptions{})
			if err != nil {
				b.Fatal(err)
			}
			a, c = adj, adj.Transpose()
			name += "-2hop"
		}
		engineArms(b, name, a, c)
	}
}

// Ablation — key alignment: a pre-aligned shared dimension vs key sets
// that Mul must first embed into their union (keys.UnionAll +
// sparse.Embed, values shared).
func BenchmarkKeyAlignment(b *testing.B) {
	g := dataset.Bipartite(rand.New(rand.NewSource(5)), 256, 256, 4096)
	one := func(graph.Edge) float64 { return 1 }
	eout, ein, _ := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one})
	aligned := eout.Transpose()

	// Misaligned: drop one edge row from ein so the shared key sets
	// differ and Mul must align them.
	ts := ein.Triples()[1:]
	einMis := assoc.FromTriples(ts, nil)

	b.Run("aligned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := assoc.Mul(aligned, ein, semiring.PlusTimes(), assoc.MulOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("intersecting", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := assoc.Mul(aligned, einMis, semiring.PlusTimes(), assoc.MulOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation — the cost of the generic Ops[V] abstraction: the engine
// under +.* built by hand (closure calls per flop) versus the registry's
// +.*, whose kernel hint selects the monomorphized row function.
func BenchmarkGenericVsSpecialized(b *testing.B) {
	g := dataset.RMAT(rand.New(rand.NewSource(8)), 10, 8)
	one := func(graph.Edge) float64 { return 1 }
	eout, ein, _ := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one})
	a := eout.Transpose().Matrix()
	c := ein.Matrix()
	generic := semiring.Ops[float64]{
		Name: "generic +.*",
		Add:  func(x, y float64) float64 { return x + y },
		Mul:  func(x, y float64) float64 { return x * y },
		Zero: 0, One: 1,
		Equal: value.Float64Equal,
	}
	for _, arm := range []struct {
		name string
		ops  semiring.Ops[float64]
	}{{"generic", generic}, {"specialized", semiring.PlusTimes()}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sparse.Mxm(a, c, arm.ops, sparse.MxmOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation — the two sides of Correlate's kernel choice, under max.min
// (the generic path). A graph's incidence pair folds; the same pair
// after assoc.Convert must fold too, since the choice is read from
// rowPtr; an exploded table's EᵀE, whose rows hold several entries,
// multiplies. Each arm times Correlate alone.
func BenchmarkCorrelateShapes(b *testing.B) {
	ops := semiring.MaxMin()
	g := dataset.RMAT(rand.New(rand.NewSource(9)), 14, 8)
	eout, ein, err := graph.Incidence(g, ops, graph.Weights[float64]{})
	if err != nil {
		b.Fatal(err)
	}
	same := func(_, _ string, v float64) float64 { return v }
	tab := dataset.SyntheticTable(rand.New(rand.NewSource(15)), dataset.DefaultSyntheticSpec(8000))
	e, err := assoc.Explode(tab, assoc.ExplodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		a, c *assoc.Array[float64]
	}{
		{"rmat-s14-incidence", eout, ein},
		{"rmat-s14-converted", assoc.Convert(eout, same), assoc.Convert(ein, same)},
		{"explode-8000-EtE", e, e},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := assoc.Correlate(arm.a, arm.c, ops, assoc.MulOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Graph.TriangleCount on R-MAT s14, edge factor 8, seed 1, symmetrized
// with self-loops dropped (nnz 228,480), the Graph built outside the
// timer. The kernel reads only the Graph's pattern: 0 B/op.
func BenchmarkTriangleCount(b *testing.B) {
	g := dataset.RMAT(rand.New(rand.NewSource(1)), 14, 8)
	bld := assoc.NewBuilder[float64](nil)
	for _, e := range g.Edges() {
		if e.Src != e.Dst {
			bld.Set(e.Src, e.Dst, 1)
			bld.Set(e.Dst, e.Src, 1)
		}
	}
	ag, err := algo.FromPattern(bld.Build())
	if err != nil {
		b.Fatal(err)
	}
	if ag.NumEdges() != 228480 {
		b.Fatalf("nnz %d, want 228480", ag.NumEdges())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := ag.TriangleCount(); err != nil || n != 752888 {
			b.Fatalf("TriangleCount = %d, %v; want 752888", n, err)
		}
	}
}

// Algorithm-suite benchmarks on a constructed adjacency array (the
// paper's "variety of algorithms" downstream of construction).
func BenchmarkAlgorithmsOnConstructedArray(b *testing.B) {
	g := dataset.RMAT(rand.New(rand.NewSource(12)), 9, 8)
	one := func(graph.Edge) float64 { return 1 }
	a, _, _, err := graph.BuildAdjacency(g, semiring.PlusTimes(), graph.Weights[float64]{Out: one, In: one}, assoc.MulOptions{})
	if err != nil {
		b.Fatal(err)
	}
	src := a.RowKeys().Key(0)
	b.Run("bfs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algo.BFSLevels(a, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sssp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algo.SSSP(a, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("components", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algo.Components(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pagerank", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := algo.PageRank(a, 0.85, 1e-8, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Provenance multiply vs value multiply on the music figures.
func BenchmarkProvenanceMultiply(b *testing.B) {
	e1, e2 := dataset.MusicE1E2()
	b.Run("values", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := assoc.Correlate(e1, e2, semiring.PlusTimes(), assoc.MulOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edge-keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := assoc.CorrelateKeys(e1, e2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Pipeline at scale: the full Figure 1→3 flow (explode → subref →
// correlate) over synthetic music-shaped tables of growing size.
func BenchmarkPipelineScaling(b *testing.B) {
	for _, records := range []int{500, 2000, 8000} {
		tab := dataset.SyntheticTable(rand.New(rand.NewSource(15)), dataset.DefaultSyntheticSpec(records))
		b.Run(fmt.Sprintf("records-%d", records), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := assoc.Explode(tab, assoc.ExplodeOptions{})
				if err != nil {
					b.Fatal(err)
				}
				e1, err := e.SubRefExpr(":", "Genre|*")
				if err != nil {
					b.Fatal(err)
				}
				e2, err := e.SubRefExpr(":", "Writer|*")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := assoc.Correlate(e1, e2, semiring.PlusTimes(), assoc.MulOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Set-up in front of the product: edge list → Graph → Eout, Ein on an
// R-MAT scale-14 multigraph, the step the construct workload of bench/
// reports as setup_s.
func BenchmarkGraphSetup(b *testing.B) {
	edges := dataset.RMAT(rand.New(rand.NewSource(3)), 14, 8).Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := adjarray.NewGraph(edges)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := adjarray.Incidence(g, adjarray.PlusTimes(), adjarray.Weights[float64]{}); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end public-API benchmark: the full Build pipeline including
// condition checks, as a downstream user would call it.
func BenchmarkBuildPipeline(b *testing.B) {
	e1, e2 := dataset.MusicE1E2()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := adjarray.Build(adjarray.BuildRequest{
					Eout: e1, Ein: e2, Semiring: "+.*", Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
