package core

import (
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
	if _, err := Build(Request{Eout: e1, Ein: e2, Semiring: "+.*", Backend: "quantum"}); err == nil {
		t.Error("unknown backend accepted")
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
