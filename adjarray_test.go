package adjarray_test

import (
	"strings"
	"testing"

	"adjarray"
	"adjarray/internal/dataset"
)

// These tests exercise the public facade exactly as a downstream user
// would, without touching internal packages (dataset is used only to
// fetch expected values).

func TestQuickstartFlow(t *testing.T) {
	eout := adjarray.FromTriples([]adjarray.Triple[float64]{
		{Row: "edge1", Col: "alice", Val: 1},
		{Row: "edge2", Col: "alice", Val: 1},
	}, nil)
	ein := adjarray.FromTriples([]adjarray.Triple[float64]{
		{Row: "edge1", Col: "bob", Val: 1},
		{Row: "edge2", Col: "carol", Val: 1},
	}, nil)
	a, err := adjarray.Correlate(eout, ein, adjarray.PlusTimes(), adjarray.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := a.At("alice", "bob"); !ok || v != 1 {
		t.Errorf("a(alice,bob) = %v,%v", v, ok)
	}
	if v, ok := a.At("alice", "carol"); !ok || v != 1 {
		t.Errorf("a(alice,carol) = %v,%v", v, ok)
	}
}

func TestGraphRoundTripViaFacade(t *testing.T) {
	g, err := adjarray.NewGraph([]adjarray.Edge{
		{Key: "k1", Src: "a", Dst: "b"},
		{Key: "k2", Src: "b", Dst: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, eout, ein, err := adjarray.BuildAdjacency(g, adjarray.PlusTimes(), adjarray.Weights[float64]{}, adjarray.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := adjarray.IsAdjacencyOf(a, g, func(v float64) bool { return v == 0 }); err != nil {
		t.Error(err)
	}
	rev, err := adjarray.ReverseAdjacency(eout, ein, adjarray.PlusTimes(), adjarray.MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := adjarray.IsAdjacencyOf(rev, g.Reverse(), func(v float64) bool { return v == 0 }); err != nil {
		t.Error(err)
	}
	if err := adjarray.VerifyConstruction(g, adjarray.MaxMin(), adjarray.Weights[float64]{}); err != nil {
		t.Error(err)
	}
}

func TestExplodeSelectorsViaFacade(t *testing.T) {
	table := adjarray.Table{
		Rows:   []string{"t1"},
		Fields: []string{"Genre", "Writer"},
		Cells:  [][]string{{"Rock", "Ann;Bob"}},
	}
	e, err := adjarray.Explode(table, adjarray.ExplodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := adjarray.ParseSelector("Writer|*")
	if err != nil {
		t.Fatal(err)
	}
	sub := e.SubRef(nil, sel)
	if sub.NNZ() != 2 {
		t.Errorf("selector picked %d entries", sub.NNZ())
	}
	back, err := adjarray.Implode(e, "|", ";")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 1 {
		t.Error("implode lost rows")
	}
}

func TestSemiringAnalysisViaFacade(t *testing.T) {
	entry, ok := adjarray.LookupSemiring("max.min")
	if !ok {
		t.Fatal("max.min missing")
	}
	rep := adjarray.Check(entry.Ops, entry.Sample, adjarray.FormatFloat)
	if !rep.TheoremII1() {
		t.Error("max.min should comply")
	}
	if v := adjarray.FindViolation(entry.Ops, entry.Sample); v != nil {
		t.Errorf("unexpected violation: %s", v)
	}
	bad := adjarray.MaxPlusAtZero()
	if v := adjarray.FindViolation(bad, []float64{0, 1, 2}); v == nil {
		t.Error("max.+@0 should yield a violation gadget")
	}
	rows := adjarray.ClassifyAlgebras()
	if len(rows) < 15 {
		t.Errorf("classification table too small: %d rows", len(rows))
	}
}

func TestSetAlgebraViaFacade(t *testing.T) {
	u := adjarray.NewSet("x", "y", "z")
	ops := adjarray.PowerSet(u)
	a := adjarray.FromTriples([]adjarray.Triple[adjarray.Set]{
		{Row: "d1", Col: "d2", Val: adjarray.NewSet("x", "y")},
	}, nil)
	got, err := adjarray.EWiseMul(a, a, ops)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.At("d1", "d2"); !v.Equal(adjarray.NewSet("x", "y")) {
		t.Errorf("set ⊗ = %v", v)
	}
}

func TestBuildPipelineViaFacade(t *testing.T) {
	e1, e2 := dataset.MusicE1E2()
	res, err := adjarray.Build(adjarray.BuildRequest{
		Eout: e1, Ein: e2, Semiring: "+.*", Workers: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := adjarray.Format(res.Adjacency, adjarray.FormatFloat)
	for _, want := range []string{"Genre|Electronic", "Writer|Chloe Chaidez", "13"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted result missing %q:\n%s", want, out)
		}
	}
}

func TestFacadeFloatHelpers(t *testing.T) {
	if adjarray.FormatFloat(7) != "7" {
		t.Error("FormatFloat")
	}
	if v, err := adjarray.ParseFloat("-Inf"); err != nil || v != adjarray.MinMax().One {
		t.Error("ParseFloat(-Inf)")
	}
	if len(adjarray.Figure3Pairs()) != 7 {
		t.Error("Figure3Pairs")
	}
}
