package semiring

import (
	"math"
	"testing"
	"testing/quick"

	"adjarray/internal/value"
)

func TestIdentitiesValidateOnDomains(t *testing.T) {
	for _, e := range Registry() {
		if e.Name == "max.+@0-signed" {
			continue // identities intentionally broken on the signed domain
		}
		if err := e.Ops.Validate(e.Sample); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

func TestFigure3PairsOrder(t *testing.T) {
	want := []string{"+.*", "max.*", "min.*", "max.+", "min.+", "max.min", "min.max"}
	got := Figure3Pairs()
	if len(got) != len(want) {
		t.Fatalf("Figure3Pairs returned %d pairs, want %d", len(got), len(want))
	}
	for i, o := range got {
		if o.Name != want[i] {
			t.Errorf("pair %d = %s, want %s", i, o.Name, want[i])
		}
	}
}

func TestPlusTimesBasics(t *testing.T) {
	o := PlusTimes()
	if got := o.Add(6, 7); got != 13 {
		t.Errorf("6 ⊕ 7 = %v", got)
	}
	if got := o.Mul(2, 3); got != 6 {
		t.Errorf("2 ⊗ 3 = %v", got)
	}
	if !o.IsZero(0) || o.IsZero(1) {
		t.Error("IsZero wrong for +.*")
	}
}

// The paper's Figure 3 invariants: every ⊗ maps (0,1) and (1,0) to the
// pair's zero, and 1⊗1 = 1 except for +-based ⊗ where 1⊗1 = 1+1.
func TestFigure3OperatorProperties(t *testing.T) {
	for _, o := range Figure3Pairs() {
		if got := o.Mul(o.One, o.Zero); !o.IsZero(got) {
			t.Errorf("%s: 1 ⊗ 0 = %v, want zero (%v)", o.Name, got, o.Zero)
		}
		if got := o.Mul(o.Zero, o.One); !o.IsZero(got) {
			t.Errorf("%s: 0 ⊗ 1 = %v, want zero", o.Name, got)
		}
		got := o.Mul(o.One, o.One)
		if !o.Equal(got, o.One) {
			t.Errorf("%s: 1 ⊗ 1 = %v, want 1 (%v)", o.Name, got, o.One)
		}
	}
	// The exception the paper calls out: with numeric weights 1 (not the
	// algebra's One), +-based ⊗ gives 2 while the others give 1.
	weightResults := map[string]float64{
		"+.*": 1, "max.*": 1, "min.*": 1,
		"max.+": 2, "min.+": 2,
		"max.min": 1, "min.max": 1,
	}
	for _, o := range Figure3Pairs() {
		if got := o.Mul(1, 1); got != weightResults[o.Name] {
			t.Errorf("%s: weight 1 ⊗ 1 = %v, want %v", o.Name, got, weightResults[o.Name])
		}
	}
}

// Figure 5's arithmetic: how each ⊗ combines the re-weighted E1 values
// (2 for Pop, 3 for Rock) with E2's 1s.
func TestFigure5OperatorArithmetic(t *testing.T) {
	cases := []struct {
		ops        Ops[float64]
		two, three float64
	}{
		{PlusTimes(), 2, 3},
		{MaxTimes(), 2, 3},
		{MinTimes(), 2, 3},
		{MaxPlus(), 3, 4},
		{MinPlus(), 3, 4},
		{MaxMin(), 1, 1},
		{MinMax(), 2, 3},
	}
	for _, c := range cases {
		if got := c.ops.Mul(2, 1); got != c.two {
			t.Errorf("%s: 2 ⊗ 1 = %v, want %v", c.ops.Name, got, c.two)
		}
		if got := c.ops.Mul(3, 1); got != c.three {
			t.Errorf("%s: 3 ⊗ 1 = %v, want %v", c.ops.Name, got, c.three)
		}
	}
}

func TestTropicalAbsorption(t *testing.T) {
	mp := MaxPlus()
	if got := mp.Mul(value.NegInf, value.PosInf); !math.IsInf(got, -1) {
		t.Errorf("max.+: -Inf ⊗ +Inf = %v, want -Inf (annihilation over IEEE NaN)", got)
	}
	mnp := MinPlus()
	if got := mnp.Mul(value.PosInf, value.NegInf); !math.IsInf(got, 1) {
		t.Errorf("min.+: +Inf ⊗ -Inf = %v, want +Inf", got)
	}
	mnt := MinTimes()
	if got := mnt.Mul(value.PosInf, 0); !math.IsInf(got, 1) {
		t.Errorf("min.*: +Inf ⊗ 0 = %v, want +Inf", got)
	}
}

func TestValidateRejectsNilOps(t *testing.T) {
	var o Ops[float64]
	o.Name = "broken"
	if err := o.Validate([]float64{1}); err == nil {
		t.Error("Validate accepted nil operations")
	}
}

func TestValidateCatchesWrongIdentity(t *testing.T) {
	o := PlusTimes()
	o.Zero = 1 // wrong on purpose
	if err := o.Validate([]float64{2}); err == nil {
		t.Error("Validate accepted a false ⊕-identity")
	}
	o = PlusTimes()
	o.One = 2
	if err := o.Validate([]float64{3}); err == nil {
		t.Error("Validate accepted a false ⊗-identity")
	}
}

// Property tests over random non-negative floats: the compliant pairs
// keep their Theorem II.1 conditions pointwise.
func TestTheoremConditionsPointwiseRandom(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	norm := func(x float64) float64 {
		x = math.Abs(x)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1
		}
		return math.Mod(x, 1000)
	}
	for _, o := range []Ops[float64]{PlusTimes(), MaxTimes(), MaxMin()} {
		o := o
		zsf := func(a, b float64) bool {
			a, b = norm(a), norm(b)
			if o.IsZero(o.Add(a, b)) {
				return o.IsZero(a) && o.IsZero(b)
			}
			return true
		}
		if err := quick.Check(zsf, cfg); err != nil {
			t.Errorf("%s zero-sum-free: %v", o.Name, err)
		}
		nzd := func(a, b float64) bool {
			a, b = norm(a), norm(b)
			if o.IsZero(o.Mul(a, b)) {
				return o.IsZero(a) || o.IsZero(b)
			}
			return true
		}
		if err := quick.Check(nzd, cfg); err != nil {
			t.Errorf("%s no-zero-divisors: %v", o.Name, err)
		}
		ann := func(a float64) bool {
			a = norm(a)
			return o.IsZero(o.Mul(a, o.Zero)) && o.IsZero(o.Mul(o.Zero, a))
		}
		if err := quick.Check(ann, cfg); err != nil {
			t.Errorf("%s annihilator: %v", o.Name, err)
		}
	}
}

func TestLeftmostNonzeroIsNonCommutativeButCompliant(t *testing.T) {
	o := LeftmostNonzero()
	if o.Add(1, 2) != 1 || o.Add(2, 1) != 2 {
		t.Fatal("first.* ⊕ should keep the leftmost non-zero operand")
	}
	r := Check(o, nonNegSample, value.FormatFloat)
	if !r.TheoremII1() {
		t.Errorf("first.* should satisfy Theorem II.1:\n%s", r)
	}
	if r.AddCommutative.Holds {
		t.Error("first.* ⊕ should be detected as non-commutative")
	}
}
