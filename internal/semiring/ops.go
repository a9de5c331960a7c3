// Package semiring models the operator pairs ⊕.⊗ that drive array
// multiplication in the paper, together with a property checker for the
// three Theorem II.1 conditions (zero-sum-freeness, absence of zero
// divisors, 0 annihilating ⊗).
//
// Deliberately, an Ops value is *not* required to be a semiring: the
// paper's whole point is that associativity, commutativity and
// distributivity are unnecessary for EoutᵀEin to be an adjacency array,
// while the three conditions above are exactly necessary and sufficient.
// The Check function therefore reports each property independently.
package semiring

import "fmt"

// Ops bundles an operator pair ⊕.⊗ over a value set V with its
// identities. Zero is the identity of Add (⊕) and doubles as the sparse
// "missing entry" value; One is the identity of Mul (⊗). Equal decides
// value equality (needed because V may be float64-with-NaN, a slice
// type, etc.).
//
// Ops values are immutable after construction and safe for concurrent
// use provided the function fields are pure, which all built-in pairs
// are.
type Ops[V any] struct {
	// Name identifies the pair in reports and figure captions,
	// e.g. "+.*" or "max.min".
	Name string
	// Add is ⊕, the operation that aggregates contributions from
	// multiple edges between the same vertex pair.
	Add func(V, V) V
	// Mul is ⊗, the operation applied to Eoutᵀ(a,k) and Ein(k,b).
	Mul func(V, V) V
	// Zero is the ⊕-identity (0). Entries equal to Zero are treated
	// as structurally absent.
	Zero V
	// One is the ⊗-identity (1), the conventional weight for an
	// unweighted edge endpoint.
	One V
	// Equal reports value equality; it must at minimum recognise Zero.
	Equal func(V, V) bool
	// kernel names a specialized fused multiplication kernel for this
	// pair. Only this package's constructors can set it (the field is
	// unexported), so a specialized kernel is a sound promise about the
	// pair's exact arithmetic, not a guess keyed on the display name.
	kernel ScalarKernel
}

// ScalarKernel identifies a hand-monomorphized SpGEMM kernel for a
// built-in operator pair. Go's gcshape stenciling leaves the generic
// kernels calling ⊕/⊗ through closure fields — an indirect call per
// flop — so the hot built-in pairs get dedicated kernels with the
// arithmetic inlined. A specialized kernel must be bit-identical to the
// generic path (same fold order, same pruning); the sparse package's
// property tests enforce this.
type ScalarKernel uint8

// Available specialized kernels.
const (
	// KernelGeneric selects the generic closure-calling kernels.
	KernelGeneric ScalarKernel = iota
	// KernelPlusTimesF64 is the canonical arithmetic pair +.* over
	// float64 (Add = +, Mul = ×, Zero = 0).
	KernelPlusTimesF64
)

// Kernel returns the specialized-kernel hint for this pair
// (KernelGeneric when none applies).
func (o Ops[V]) Kernel() ScalarKernel { return o.kernel }

// IsZero reports whether v is the algebra's 0 element.
func (o Ops[V]) IsZero(v V) bool { return o.Equal(v, o.Zero) }

// Validate checks that the declared identities behave as identities on
// the provided sample values. It returns an error naming the first
// violation, or nil. This is a cheap structural sanity check used by
// constructors and tests; the full Theorem II.1 analysis lives in Check.
func (o Ops[V]) Validate(sample []V) error {
	if o.Add == nil || o.Mul == nil || o.Equal == nil {
		return fmt.Errorf("semiring %q: nil operation", o.Name)
	}
	for _, v := range sample {
		if !o.Equal(o.Add(v, o.Zero), v) || !o.Equal(o.Add(o.Zero, v), v) {
			return fmt.Errorf("semiring %q: Zero is not a ⊕-identity for %v", o.Name, v)
		}
		if !o.Equal(o.Mul(v, o.One), v) || !o.Equal(o.Mul(o.One, v), v) {
			return fmt.Errorf("semiring %q: One is not a ⊗-identity for %v", o.Name, v)
		}
	}
	return nil
}

// Rename returns a copy of o carrying a different display name. Useful
// when the same operation pair appears under several conventional
// spellings (e.g. "+.×" vs "+.*").
func (o Ops[V]) Rename(name string) Ops[V] {
	o.Name = name
	return o
}
