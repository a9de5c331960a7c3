package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adjarray/internal/assoc"
	"adjarray/internal/dataset"
	"adjarray/internal/graph"
	"adjarray/internal/semiring"
	"adjarray/internal/value"
)

func eqF(a, b float64) bool { return value.Float64Equal(a, b) }

func musicRequest(backend Backend) Request {
	e1, e2 := dataset.MusicE1E2()
	return Request{Eout: e1, Ein: e2, Semiring: "+.*", Backend: backend}
}

func TestBuildMusicOnEveryBackend(t *testing.T) {
	want := dataset.Figure3Expected()["+.*"]
	for _, backend := range Backends() {
		res, err := Build(musicRequest(backend))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !res.Adjacency.Equal(want, eqF) {
			t.Errorf("%s: Figure 3 +.* mismatch", backend)
		}
		if !res.Report.TheoremII1() {
			t.Errorf("%s: +.* should pass the condition check", backend)
		}
		if res.Violation != nil {
			t.Errorf("%s: unexpected violation", backend)
		}
	}
}

func TestBuildDefaultsToCSR(t *testing.T) {
	req := musicRequest("")
	res, err := Build(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adjacency == nil || res.Elapsed < 0 {
		t.Error("default backend did not produce a result")
	}
}

func TestBuildAllSemiringsMatchFigures(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	for name, want := range dataset.Figure3Expected() {
		res, err := Build(Request{Eout: e1, Ein: e2, Semiring: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Adjacency.Equal(want, eqF) {
			t.Errorf("%s: mismatch with Figure 3", name)
		}
	}
}

func TestBuildRejectsNonCompliantAlgebra(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	res, err := Build(Request{Eout: e1, Ein: e2, Semiring: "max.+@0"})
	if err == nil {
		t.Fatal("non-compliant algebra accepted without SkipConditionCheck")
	}
	if !strings.Contains(err.Error(), "cannot guarantee") {
		t.Errorf("error text: %v", err)
	}
	if res == nil || res.Violation == nil {
		t.Fatal("refusal should carry the gadget violation")
	}
	if res.Violation.Lemma != "II.4" {
		t.Errorf("max.+@0 should fail via Lemma II.4, got %s", res.Violation.Lemma)
	}
}

func TestBuildSkipConditionCheckProceeds(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	res, err := Build(Request{Eout: e1, Ein: e2, Semiring: "max.+@0", SkipConditionCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adjacency == nil {
		t.Fatal("construction skipped")
	}
	if res.Violation == nil {
		t.Error("violation should still be reported")
	}
	// On this particular data (sparse kernel, no explicit zeros), the
	// pattern still comes out right — the theorem is about guarantees
	// over ALL graphs, which the violation gadget witnesses.
}

func TestBuildUnknownInputs(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	if _, err := Build(Request{Eout: e1, Ein: e2, Semiring: "nope"}); err == nil {
		t.Error("unknown semiring accepted")
	}
	if _, err := Build(Request{Semiring: "+.*"}); err == nil {
		t.Error("nil incidence arrays accepted")
	}
	// The backend is refused before the arrays are read: under a pair
	// that would fail the condition check, the answer is still the
	// backend, with the known values named and no report computed.
	for _, semiring := range []string{"+.*", "max.+@0"} {
		res, err := Build(Request{Eout: e1, Ein: e2, Semiring: semiring, Backend: "sharded"})
		if err == nil || !strings.Contains(err.Error(), `unknown backend "sharded" (known: "" — the sparse engine — and "dense")`) {
			t.Errorf("%s: unknown backend: %v", semiring, err)
		}
		if res != nil {
			t.Errorf("%s: unknown backend still computed a result: %+v", semiring, res.Report)
		}
	}
}

func TestBuildValidateAgainstGraph(t *testing.T) {
	g := graph.MustNew([]graph.Edge{
		{Key: "k1", Src: "a", Dst: "b"},
		{Key: "k2", Src: "b", Dst: "c"},
		{Key: "k3", Src: "a", Dst: "c"},
	})
	eout, ein, err := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(Request{Eout: eout, Ein: ein, Semiring: "+.*", Validate: true})
	if err != nil {
		t.Fatalf("validated build failed: %v", err)
	}
	if res.Adjacency.NNZ() != 3 {
		t.Errorf("adjacency nnz = %d", res.Adjacency.NNZ())
	}
}

func TestBuildValidateRejectsNonGraphIncidence(t *testing.T) {
	// An edge row with two sources is not graph-shaped.
	eout := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "k", Col: "a", Val: 1}, {Row: "k", Col: "b", Val: 1},
	}, nil)
	ein := assoc.FromTriples([]assoc.Triple[float64]{{Row: "k", Col: "c", Val: 1}}, nil)
	_, err := Build(Request{Eout: eout, Ein: ein, Semiring: "+.*", Validate: true})
	if err == nil || !strings.Contains(err.Error(), "not graph-shaped") {
		t.Errorf("expected graph-shape error, got %v", err)
	}
}

func TestBuildChecksDataValuesNotJustCanonicalSample(t *testing.T) {
	// +.* over non-negative reals is compliant, but if the DATA contains
	// negatives the effective domain is a ring and cancellation can
	// occur. The data-aware check must catch this.
	eout := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "k1", Col: "a", Val: 5}, {Row: "k2", Col: "a", Val: -5},
	}, nil)
	ein := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "k1", Col: "b", Val: 1}, {Row: "k2", Col: "b", Val: 1},
	}, nil)
	res, err := Build(Request{Eout: eout, Ein: ein, Semiring: "+.*"})
	if err == nil {
		t.Fatal("negative data under +.* should be refused (zero-sum risk)")
	}
	if res.Violation == nil || res.Violation.Condition != "zero-sum-free" {
		t.Errorf("expected a zero-sum-free violation, got %v", res.Violation)
	}
	// And indeed, forcing construction produces a non-adjacency result.
	res2, err := Build(Request{Eout: eout, Ein: ein, Semiring: "+.*", SkipConditionCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Adjacency.NNZ() != 0 {
		t.Error("cancellation should have emptied the product")
	}
}

// appendDataValuesByIterate is the former appendDataValues: every stored
// entry through the string-keyed Iterate, walking on past the cap.
func appendDataValuesByIterate(sample []float64, a *assoc.Array[float64], max int) []float64 {
	seen := make(map[float64]bool, len(sample))
	for _, v := range sample {
		seen[v] = true
	}
	a.Iterate(func(_, _ string, v float64) {
		if len(seen) >= max || seen[v] {
			return
		}
		seen[v] = true
		sample = append(sample, v)
	})
	return sample
}

// TestDataValueSampleIsUnchanged pins the condition check's data sample
// — which values, in which order — to what the walk over every entry
// drew: on the music arrays and on R-MAT incidence pairs with unit
// weights (one run, the cap never reached), few distinct weights (runs
// and repeats) and many (the cap reached early), for every registry
// pair's canonical sample.
func TestDataValueSampleIsUnchanged(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	arrays := []*assoc.Array[float64]{e1, e2}
	g := dataset.RMAT(rand.New(rand.NewSource(5)), 9, 8)
	for _, distinct := range []int{1, 5, 1000} {
		r := rand.New(rand.NewSource(int64(distinct)))
		weight := func(graph.Edge) float64 { return float64(1 + r.Intn(distinct)) }
		eout, ein, err := graph.Incidence(g, semiring.PlusTimes(), graph.Weights[float64]{Out: weight, In: weight})
		if err != nil {
			t.Fatal(err)
		}
		arrays = append(arrays, eout, ein)
	}
	nan := assoc.FromTriples([]assoc.Triple[float64]{
		{Row: "k1", Col: "a", Val: math.NaN()}, {Row: "k2", Col: "a", Val: math.NaN()},
		{Row: "k3", Col: "a", Val: math.Copysign(0, -1)}, {Row: "k4", Col: "a", Val: 0},
	}, nil)
	arrays = append(arrays, nan)
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, entry := range semiring.Registry() {
		for i, a := range arrays {
			for _, max := range []int{64, len(entry.Sample), 3} {
				got := appendDataValues(slices.Clone(entry.Sample), a, max)
				want := appendDataValuesByIterate(slices.Clone(entry.Sample), a, max)
				if !same(got, want) {
					t.Fatalf("%s, array %d, cap %d: sample %v, the walk over every entry drew %v", entry.Name, i, max, got, want)
				}
			}
		}
	}
}
