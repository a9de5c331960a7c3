package assoc

import (
	"fmt"
	"math/rand"
	"testing"

	"adjarray/internal/keys"
	"adjarray/internal/semiring"
)

func eqFloat(a, b float64) bool { return a == b }

func randomTriples(r *rand.Rand, n, rowCard, colCard int, rowPrefix string) []Triple[float64] {
	ts := make([]Triple[float64], 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, Triple[float64]{
			Row: fmt.Sprintf("%s%04d", rowPrefix, r.Intn(rowCard)),
			Col: fmt.Sprintf("c%04d", r.Intn(colCard)),
			Val: float64(r.Intn(9) + 1),
		})
	}
	return ts
}

func TestAddIntoMatchesAdd(t *testing.T) {
	ops := semiring.PlusTimes()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		a := FromTriples(randomTriples(r, 20, 8, 8, "r"), ops.Add)
		b := FromTriples(randomTriples(r, 10, 10, 10, "r"), ops.Add)
		want, err := Add(a, b, ops)
		if err != nil {
			t.Fatal(err)
		}
		// Clone a so the in-place trials cannot poison later oracles.
		ac := FromTriples(a.Triples(), ops.Add)
		got, err := AddInto(ac, b, ops, trial%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, eqFloat) {
			t.Fatalf("trial %d: AddInto != Add", trial)
		}
	}
}

func TestAddIntoInPlaceAliasing(t *testing.T) {
	ops := semiring.PlusTimes()
	a := FromTriples([]Triple[float64]{
		{Row: "x", Col: "p", Val: 1}, {Row: "y", Col: "q", Val: 2},
	}, nil)
	// Same keys, subset pattern → the fold lands in a's own storage.
	b := FromTriples([]Triple[float64]{{Row: "y", Col: "q", Val: 5}}, nil)
	br, err := b.Reindex(a.RowKeys(), a.ColKeys())
	if err != nil {
		t.Fatal(err)
	}
	got, err := AddInto(a, br, ops, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Error("aligned subset merge should return a itself")
	}
	if v, _ := got.At("y", "q"); v != 7 {
		t.Errorf("fold = %v", v)
	}
	// Without inPlace, a must stay untouched.
	a2 := FromTriples([]Triple[float64]{{Row: "x", Col: "p", Val: 1}}, nil)
	b2 := FromTriples([]Triple[float64]{{Row: "x", Col: "p", Val: 3}}, nil)
	got2, err := AddInto(a2, b2, ops, false)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := a2.At("x", "p"); v != 1 {
		t.Errorf("a mutated on copy path: %v", v)
	}
	if v, _ := got2.At("x", "p"); v != 4 {
		t.Errorf("copy-path fold = %v", v)
	}
}

func TestAddIntoGrowsKeySets(t *testing.T) {
	ops := semiring.MaxPlus()
	a := FromTriples([]Triple[float64]{{Row: "a", Col: "a", Val: 1}}, nil)
	b := FromTriples([]Triple[float64]{{Row: "b", Col: "c", Val: 2}}, nil)
	got, err := AddInto(a, b, ops, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowKeys().Len() != 2 || got.ColKeys().Len() != 2 {
		t.Fatalf("union keys wrong: %v × %v", got.RowKeys(), got.ColKeys())
	}
	if v, ok := got.At("b", "c"); !ok || v != 2 {
		t.Errorf("new-key entry lost: %v %v", v, ok)
	}
}

func TestArrayAppendRows(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	log := FromTriples([]Triple[float64]{
		{Row: "e0001", Col: "u", Val: 1},
		{Row: "e0002", Col: "v", Val: 1},
	}, nil)
	all := log.Triples()
	for step := 0; step < 6; step++ {
		var ts []Triple[float64]
		for i := 0; i < 1+r.Intn(3); i++ {
			ts = append(ts, Triple[float64]{
				Row: fmt.Sprintf("e%04d", 10+step*10+i),
				Col: fmt.Sprintf("w%d", r.Intn(6)),
				Val: float64(1 + r.Intn(5)),
			})
		}
		extra := FromTriples(ts, nil)
		grown, err := log.AppendRows(extra, true)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ts...)
		want := FromTriples(all, nil)
		if !grown.Equal(want, eqFloat) {
			t.Fatalf("step %d: append != batch rebuild", step)
		}
		log = grown
	}
	// Out-of-order keys are rejected.
	stale := FromTriples([]Triple[float64]{{Row: "e0000", Col: "u", Val: 1}}, nil)
	if _, err := log.AppendRows(stale, true); err == nil {
		t.Error("non-monotone row keys accepted")
	}
	// Empty append returns the receiver.
	if same, err := log.AppendRows(FromTriples[float64](nil, nil), true); err != nil || same != log {
		t.Errorf("empty append: %v %v", same, err)
	}
}

func TestEmbedInto(t *testing.T) {
	a := FromTriples([]Triple[float64]{{Row: "b", Col: "y", Val: 3}}, nil)
	rows := a.RowKeys().Union(FromTriples([]Triple[float64]{{Row: "a", Col: "z", Val: 1}}, nil).RowKeys())
	cols := a.ColKeys().Union(FromTriples([]Triple[float64]{{Row: "a", Col: "z", Val: 1}}, nil).ColKeys())
	e, err := a.EmbedInto(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Reindex(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Equal(want, eqFloat) {
		t.Error("EmbedInto != Reindex")
	}
	// Missing keys in the target are rejected.
	if _, err := a.EmbedInto(FromTriples([]Triple[float64]{{Row: "z", Col: "y", Val: 1}}, nil).RowKeys(), cols); err == nil {
		t.Error("target missing a's rows accepted")
	}
}

func TestGrowColsMatchesEmbedInto(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := FromTriples(randomTriples(r, 40, 10, 8, "e"), nil)
	extra := keys.New("c0002", "c0500", "c0900", "zzz")
	grown, oldPos, extraPos, err := a.GrowCols(extra)
	if err != nil {
		t.Fatal(err)
	}
	union := a.ColKeys().Union(extra)
	if !grown.ColKeys().Equal(union) {
		t.Fatal("grown column set is not the union")
	}
	want, err := a.EmbedInto(a.RowKeys(), union)
	if err != nil {
		t.Fatal(err)
	}
	if !grown.Equal(want, eqFloat) {
		t.Fatal("GrowCols != EmbedInto over the union")
	}
	// Position maps resolve keys into the union.
	for i := 0; i < a.ColKeys().Len(); i++ {
		p := i
		if oldPos != nil {
			p = oldPos[i]
		}
		if union.Key(p) != a.ColKeys().Key(i) {
			t.Fatalf("oldPos[%d] wrong", i)
		}
	}
	for i := 0; i < extra.Len(); i++ {
		p := i
		if extraPos != nil {
			p = extraPos[i]
		}
		if union.Key(p) != extra.Key(i) {
			t.Fatalf("extraPos[%d] wrong", i)
		}
	}
	// Subset growth is a no-op share.
	same, op, ep, err := a.GrowCols(keys.New(a.ColKeys().Key(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !same.ColKeys().Equal(a.ColKeys()) || op != nil || ep == nil && a.ColKeys().Key(0) != same.ColKeys().Key(0) {
		t.Error("subset GrowCols should keep a's column set")
	}
}

func TestAppendUnitRowsAndIncidencePair(t *testing.T) {
	ops := semiring.PlusTimes()
	mk := func() (*Array[float64], *Array[float64]) {
		eout := FromTriples([]Triple[float64]{
			{Row: "e01", Col: "a", Val: 1}, {Row: "e02", Col: "b", Val: 1},
		}, nil)
		ein := FromTriples([]Triple[float64]{
			{Row: "e01", Col: "b", Val: 1}, {Row: "e02", Col: "c", Val: 1},
		}, nil)
		return eout, ein
	}
	eout, ein := mk()
	// Unit rows on one side.
	pos, ok := eout.ColKeys().Index("a")
	if !ok {
		t.Fatal("missing col")
	}
	grown, err := eout.AppendUnitRows([]string{"e03", "e04"}, []int{pos, pos}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := grown.At("e04", "a"); !ok || v != 3 {
		t.Fatalf("unit row lost: %v %v", v, ok)
	}
	if _, err := grown.AppendUnitRows([]string{"e03"}, []int{pos}, []float64{1}); err == nil {
		t.Error("stale key accepted")
	}

	// The pair append matches two independent AppendRows.
	eout, ein = mk()
	wantOut, wantIn := mk()
	bo, bi := mk2Batch()
	wo, err := wantOut.AppendRows(bo, false)
	if err != nil {
		t.Fatal(err)
	}
	wi, err := wantIn.AppendRows(bi, false)
	if err != nil {
		t.Fatal(err)
	}
	po, _ := eout.ColKeys().Index("b")
	pi, _ := ein.ColKeys().Index("c")
	go2, gi2, err := AppendIncidencePair(eout, ein, []string{"e03"}, []int{po}, []int{pi}, []float64{5}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if !go2.Equal(wo, eqFloat) || !gi2.Equal(wi, eqFloat) {
		t.Error("pair append != general append")
	}
	if !go2.RowKeys().Equal(gi2.RowKeys()) {
		t.Error("pair append broke the shared-row invariant")
	}
	// And the grown pair keeps folding correctly through the engine path.
	if _, err := Correlate(go2, gi2, ops, MulOptions{}); err != nil {
		t.Fatal(err)
	}
}

// mk2Batch is the delta for the pair-append oracle: edge e03 with
// Eout(e03,b)=5, Ein(e03,c)=7.
func mk2Batch() (*Array[float64], *Array[float64]) {
	return FromTriples([]Triple[float64]{{Row: "e03", Col: "b", Val: 5}}, nil),
		FromTriples([]Triple[float64]{{Row: "e03", Col: "c", Val: 7}}, nil)
}
