package semiring

import (
	"strings"
	"testing"

	"adjarray/internal/value"
)

// expectVerdict asserts which of the three Theorem II.1 conditions hold.
func expectVerdict(t *testing.T, r Report, zsf, nzd, ann bool) {
	t.Helper()
	if r.ZeroSumFree.Holds != zsf {
		t.Errorf("%s zero-sum-free = %v (witness %q), want %v", r.Name, r.ZeroSumFree.Holds, r.ZeroSumFree.Witness, zsf)
	}
	if r.NoZeroDivisors.Holds != nzd {
		t.Errorf("%s no-zero-divisors = %v (witness %q), want %v", r.Name, r.NoZeroDivisors.Holds, r.NoZeroDivisors.Witness, nzd)
	}
	if r.Annihilator.Holds != ann {
		t.Errorf("%s annihilator = %v (witness %q), want %v", r.Name, r.Annihilator.Holds, r.Annihilator.Witness, ann)
	}
	if want := zsf && nzd && ann; r.TheoremII1() != want {
		t.Errorf("%s TheoremII1 = %v, want %v", r.Name, r.TheoremII1(), want)
	}
}

func TestCheckSevenPaperPairsComply(t *testing.T) {
	for _, name := range []string{"+.*", "max.*", "min.*", "max.+", "min.+", "max.min", "min.max"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("registry missing %s", name)
		}
		r := Check(e.Ops, e.Sample, value.FormatFloat)
		expectVerdict(t, r, true, true, true)
	}
}

func TestCheckMaxPlusAtZeroFailsAnnihilator(t *testing.T) {
	e, _ := Lookup("max.+@0")
	r := Check(e.Ops, e.Sample, value.FormatFloat)
	expectVerdict(t, r, true, true, false)
	if !strings.Contains(r.Annihilator.Witness, "≠ 0") {
		t.Errorf("witness should show the annihilation failure, got %q", r.Annihilator.Witness)
	}
}

func TestCheckSignedMaxPlusFailsZeroProduct(t *testing.T) {
	r := Check(MaxPlusAtZero(), []float64{0, 1, -1, 2, -2}, value.FormatFloat)
	if r.NoZeroDivisors.Holds {
		t.Error("signed max.+@0 should exhibit zero divisors (v ⊗ −v = 0)")
	}
	if r.TheoremII1() {
		t.Error("signed max.+@0 must violate Theorem II.1")
	}
}

func TestCheckRingFailsZeroSumFree(t *testing.T) {
	e, _ := Lookup("real+.real*")
	r := Check(e.Ops, e.Sample, value.FormatFloat)
	expectVerdict(t, r, false, true, true)
}

func TestCheckZMod6FailsBoth(t *testing.T) {
	r := Check(ZMod(6), []int64{0, 1, 2, 3, 4, 5}, nil)
	expectVerdict(t, r, false, false, true)
}

func TestCheckZMod5IsZeroDivisorFreeButNotZeroSumFree(t *testing.T) {
	// ℤ/5ℤ is a field: no zero divisors, but 1 ⊕ 4 = 0.
	r := Check(ZMod(5), []int64{0, 1, 2, 3, 4}, nil)
	expectVerdict(t, r, false, true, true)
}

func TestCheckPowerSetFailsZeroProduct(t *testing.T) {
	u := value.NewSet("a", "b")
	subsets := []value.Set{nil, value.NewSet("a"), value.NewSet("b"), u}
	r := Check(PowerSet(u), subsets, nil)
	expectVerdict(t, r, true, false, true)
}

func TestCheckTrivialBooleanAlgebraComplies(t *testing.T) {
	r := Check(BoolOrAnd(), []bool{false, true}, nil)
	expectVerdict(t, r, true, true, true)
	if !r.AddAssociative.Holds || !r.MulCommutative.Holds || !r.Distributive.Holds {
		t.Error("the two-element Boolean algebra should pass every diagnostic")
	}
}

func TestCheckStringMaxMinComplies(t *testing.T) {
	r := Check(StringMaxMin(), []string{"", "a", "ab", "b", "zz"}, nil)
	expectVerdict(t, r, true, true, true)
}

func TestCheckNatComplies(t *testing.T) {
	r := Check(NatPlusTimes(), []int64{0, 1, 2, 3, 7, 13}, nil)
	expectVerdict(t, r, true, true, true)
}

func TestCheckDiagnosticsIndependentOfTheorem(t *testing.T) {
	// first.* satisfies the theorem but is not ⊕-commutative: the paper's
	// point that semiring laws are orthogonal to adjacency correctness.
	r := Check(LeftmostNonzero(), []float64{0, 1, 2, 3}, value.FormatFloat)
	if !r.TheoremII1() {
		t.Fatal("first.* should satisfy Theorem II.1")
	}
	if r.AddCommutative.Holds {
		t.Error("first.* should fail ⊕-commutativity diagnostics")
	}
}

func TestReportStringFormat(t *testing.T) {
	e, _ := Lookup("+.*")
	s := Check(e.Ops, e.Sample, value.FormatFloat).String()
	for _, want := range []string{"operator pair +.*", "zero-sum-free", "no-zero-divisors", "annihilator", "Theorem II.1 satisfied"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	bad := Check(ZMod(6), []int64{0, 1, 2, 3, 4, 5}, nil).String()
	if !strings.Contains(bad, "VIOLATED") {
		t.Errorf("violating report should say VIOLATED:\n%s", bad)
	}
}

func TestCheckNilFormatterDefaults(t *testing.T) {
	r := Check(NatPlusTimes(), []int64{0, 1}, nil)
	if !r.TheoremII1() {
		t.Error("nil formatter should not affect the verdict")
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, ok := Lookup("+.*"); !ok {
		t.Error("+.* should resolve")
	}
	if _, ok := Lookup("plus.times"); !ok {
		t.Error("alias plus.times should resolve")
	}
	if _, ok := Lookup("no-such-pair"); ok {
		t.Error("bogus name resolved")
	}
	names := Names()
	if len(names) < 10 {
		t.Errorf("expected at least 10 registered pairs, got %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Error("Names() not sorted")
		}
	}
}

func TestClassifyMatchesPaperSectionIII(t *testing.T) {
	rows := Classify()
	byName := map[string]ClassRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	compliant := []string{"+.*", "max.*", "min.*", "max.+", "min.+", "max.min", "min.max",
		"nat+.nat*", "or.and", "smax.smin", "first.*"}
	for _, n := range compliant {
		r, ok := byName[n]
		if !ok {
			t.Errorf("classification missing %s", n)
			continue
		}
		if !r.TheoremOK {
			t.Errorf("%s should comply (witness: %s)", n, r.Witness)
		}
	}
	nonCompliant := []string{"max.+@0", "max.+@0-signed", "real+.real*", "zmod6", "union.intersect", "int+.int*"}
	for _, n := range nonCompliant {
		r, ok := byName[n]
		if !ok {
			t.Errorf("classification missing %s", n)
			continue
		}
		if r.TheoremOK {
			t.Errorf("%s should NOT comply", n)
		}
		if r.Witness == "" {
			t.Errorf("%s should carry a violation witness", n)
		}
	}
}
