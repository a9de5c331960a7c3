package semiring

import (
	"fmt"
	"strings"
)

// Condition is the outcome of testing one algebraic law over a finite
// sample of values. Holds is true when no violation was found; when a
// violation exists, Witness holds a human-readable counterexample such
// as "3 ⊗ 2 = 0 with 3≠0, 2≠0".
type Condition struct {
	Name    string
	Holds   bool
	Witness string
}

// Report is the full property analysis of an operator pair over a
// sample. The first three conditions are exactly the Theorem II.1
// criteria; the remaining ones are diagnostics demonstrating the paper's
// observation that semiring laws are independent of adjacency-array
// correctness.
type Report struct {
	Name string

	// Theorem II.1 conditions.
	ZeroSumFree    Condition // a⊕b = 0 ⇒ a = b = 0
	NoZeroDivisors Condition // a⊗b = 0 ⇒ a = 0 or b = 0
	Annihilator    Condition // a⊗0 = 0⊗a = 0

	// Identity sanity.
	AddIdentity Condition
	MulIdentity Condition

	// Semiring diagnostics (informational only).
	AddAssociative Condition
	AddCommutative Condition
	MulAssociative Condition
	MulCommutative Condition
	Distributive   Condition // ⊗ over ⊕, both sides
}

// TheoremII1 reports whether all three of the paper's conditions hold on
// the sample, i.e. whether EoutᵀEin is guaranteed (on this sample's
// value domain) to be an adjacency array for every graph.
func (r Report) TheoremII1() bool {
	return r.ZeroSumFree.Holds && r.NoZeroDivisors.Holds && r.Annihilator.Holds
}

// Conditions returns all tested conditions in presentation order.
func (r Report) Conditions() []Condition {
	return []Condition{
		r.ZeroSumFree, r.NoZeroDivisors, r.Annihilator,
		r.AddIdentity, r.MulIdentity,
		r.AddAssociative, r.AddCommutative,
		r.MulAssociative, r.MulCommutative, r.Distributive,
	}
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "operator pair %s:\n", r.Name)
	for _, c := range r.Conditions() {
		mark := "ok"
		if !c.Holds {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  %-18s %-4s", c.Name, mark)
		if c.Witness != "" {
			fmt.Fprintf(&b, "  %s", c.Witness)
		}
		b.WriteByte('\n')
	}
	verdict := "=> Theorem II.1 satisfied: EoutT*Ein is always an adjacency array"
	if !r.TheoremII1() {
		verdict = "=> Theorem II.1 VIOLATED: some graph has a non-adjacency product"
	}
	b.WriteString(verdict)
	b.WriteByte('\n')
	return b.String()
}

// maxTripleSample bounds the O(n³) associativity/distributivity loops.
const maxTripleSample = 12

// Check analyses an operator pair over a finite sample of values.
// format renders values in witnesses; pass nil for %v formatting.
//
// The sample must represent the domain the algebra is intended for:
// conditions are verified exhaustively over the sample (quadratic for
// the theorem conditions, cubic over a truncated sample for the
// diagnostics), so a violation outside the sample is not detected, and
// conversely any reported witness is a genuine concrete violation.
func Check[V any](o Ops[V], sample []V, format func(V) string) Report {
	if format == nil {
		format = func(v V) string { return fmt.Sprintf("%v", v) }
	}
	r := Report{Name: o.Name}

	r.ZeroSumFree = Condition{Name: "zero-sum-free", Holds: true}
	r.NoZeroDivisors = Condition{Name: "no-zero-divisors", Holds: true}
	r.Annihilator = Condition{Name: "annihilator", Holds: true}
	r.AddIdentity = Condition{Name: "add-identity", Holds: true}
	r.MulIdentity = Condition{Name: "mul-identity", Holds: true}

	for _, a := range sample {
		if r.Annihilator.Holds {
			if !o.IsZero(o.Mul(a, o.Zero)) {
				r.Annihilator = Condition{Name: "annihilator", Holds: false,
					Witness: fmt.Sprintf("%s ⊗ 0 = %s ≠ 0", format(a), format(o.Mul(a, o.Zero)))}
			} else if !o.IsZero(o.Mul(o.Zero, a)) {
				r.Annihilator = Condition{Name: "annihilator", Holds: false,
					Witness: fmt.Sprintf("0 ⊗ %s = %s ≠ 0", format(a), format(o.Mul(o.Zero, a)))}
			}
		}
		if r.AddIdentity.Holds && (!o.Equal(o.Add(a, o.Zero), a) || !o.Equal(o.Add(o.Zero, a), a)) {
			r.AddIdentity = Condition{Name: "add-identity", Holds: false,
				Witness: fmt.Sprintf("%s ⊕ 0 ≠ %s", format(a), format(a))}
		}
		if r.MulIdentity.Holds && (!o.Equal(o.Mul(a, o.One), a) || !o.Equal(o.Mul(o.One, a), a)) {
			r.MulIdentity = Condition{Name: "mul-identity", Holds: false,
				Witness: fmt.Sprintf("%s ⊗ 1 ≠ %s", format(a), format(a))}
		}
		for _, b := range sample {
			if r.ZeroSumFree.Holds && o.IsZero(o.Add(a, b)) && !(o.IsZero(a) && o.IsZero(b)) {
				r.ZeroSumFree = Condition{Name: "zero-sum-free", Holds: false,
					Witness: fmt.Sprintf("%s ⊕ %s = 0 with operands not both 0", format(a), format(b))}
			}
			if r.NoZeroDivisors.Holds && o.IsZero(o.Mul(a, b)) && !o.IsZero(a) && !o.IsZero(b) {
				r.NoZeroDivisors = Condition{Name: "no-zero-divisors", Holds: false,
					Witness: fmt.Sprintf("%s ⊗ %s = 0 with %s≠0, %s≠0", format(a), format(b), format(a), format(b))}
			}
		}
	}

	tri := sample
	if len(tri) > maxTripleSample {
		tri = tri[:maxTripleSample]
	}
	r.AddAssociative = checkAssoc(o.Add, o.Equal, tri, "⊕", format)
	r.AddAssociative.Name = "add-associative"
	r.MulAssociative = checkAssoc(o.Mul, o.Equal, tri, "⊗", format)
	r.MulAssociative.Name = "mul-associative"
	r.AddCommutative = checkCommut(o.Add, o.Equal, tri, "⊕", format)
	r.AddCommutative.Name = "add-commutative"
	r.MulCommutative = checkCommut(o.Mul, o.Equal, tri, "⊗", format)
	r.MulCommutative.Name = "mul-commutative"
	r.Distributive = checkDistrib(o, tri, format)
	return r
}

func checkAssoc[V any](op func(V, V) V, eq func(V, V) bool, s []V, sym string, format func(V) string) Condition {
	for _, a := range s {
		for _, b := range s {
			for _, c := range s {
				if !eq(op(op(a, b), c), op(a, op(b, c))) {
					return Condition{Holds: false,
						Witness: fmt.Sprintf("(%s %s %s) %s %s ≠ %s %s (%s %s %s)",
							format(a), sym, format(b), sym, format(c),
							format(a), sym, format(b), sym, format(c))}
				}
			}
		}
	}
	return Condition{Holds: true}
}

// CheckAssociativeValues is the guard of every path that re-associates
// the per-cell ⊕ fold (internal/stream: each appended batch is folded on
// its own and ⊕-merged into the running adjacency). Over the first
// maxTripleSample of vals it reports the first triple on which ⊕ is not
// associative — the hypothesis under which the regrouped fold equals the
// sequential Definition I.3 fold; the fold ORDER is kept, so
// commutativity is not required.
//
// Besides associativity it verifies that Zero is a two-sided ⊕-identity
// on the sample: a partial fold prunes cells that fold to the algebra's
// Zero, and the merge treats the resulting absence as "contributes
// nothing" — sound only when v ⊕ 0 = 0 ⊕ v = v. An algebra with
// zero-divisor products and a non-identity Zero (max.+ anchored at 0
// over signed data, where 2 ⊗ −2 = 0 but max(−1, 0) ≠ −1) passes a pure
// associativity probe yet diverges; the cross-backend conformance
// harness caught exactly that gap.
func CheckAssociativeValues[V any](o Ops[V], vals []V) error {
	if len(vals) > maxTripleSample {
		vals = vals[:maxTripleSample]
	}
	format := func(v V) string { return fmt.Sprint(v) }
	if c := checkAssoc(o.Add, o.Equal, vals, "⊕", format); !c.Holds {
		return fmt.Errorf("semiring: ⊕ is not associative on the data: %s; "+
			"re-associated merge would diverge from the sequential fold", c.Witness)
	}
	for _, a := range vals {
		if !o.Equal(o.Add(a, o.Zero), a) || !o.Equal(o.Add(o.Zero, a), a) {
			return fmt.Errorf("semiring: 0 is not a ⊕-identity on the data (%v); "+
				"pruned partial-fold cells would diverge from the sequential fold", a)
		}
	}
	return nil
}

func checkCommut[V any](op func(V, V) V, eq func(V, V) bool, s []V, sym string, format func(V) string) Condition {
	for _, a := range s {
		for _, b := range s {
			if !eq(op(a, b), op(b, a)) {
				return Condition{Holds: false,
					Witness: fmt.Sprintf("%s %s %s ≠ %s %s %s", format(a), sym, format(b), format(b), sym, format(a))}
			}
		}
	}
	return Condition{Holds: true}
}

func checkDistrib[V any](o Ops[V], s []V, format func(V) string) Condition {
	for _, a := range s {
		for _, b := range s {
			for _, c := range s {
				left := o.Mul(a, o.Add(b, c))
				right := o.Add(o.Mul(a, b), o.Mul(a, c))
				if !o.Equal(left, right) {
					return Condition{Name: "distributive", Holds: false,
						Witness: fmt.Sprintf("%s ⊗ (%s ⊕ %s) ≠ (%s⊗%s) ⊕ (%s⊗%s)",
							format(a), format(b), format(c), format(a), format(b), format(a), format(c))}
				}
				left = o.Mul(o.Add(b, c), a)
				right = o.Add(o.Mul(b, a), o.Mul(c, a))
				if !o.Equal(left, right) {
					return Condition{Name: "distributive", Holds: false,
						Witness: fmt.Sprintf("(%s ⊕ %s) ⊗ %s ≠ (%s⊗%s) ⊕ (%s⊗%s)",
							format(b), format(c), format(a), format(b), format(a), format(c), format(a))}
				}
			}
		}
	}
	return Condition{Name: "distributive", Holds: true}
}
