// Package value defines the value sets V that associative arrays range
// over, together with the zero conventions the paper's algebra needs.
//
// The paper (Jananthan, Dibert, Kepner 2017) treats an associative array
// as a map K1×K2 → V where V carries two binary operations ⊕ and ⊗ with
// identities 0 and 1. Different algebras use different elements of V as
// the sparse "zero" (missing entry): arithmetic uses 0, max-plus uses
// −∞, min-plus uses +∞, string algebras use "", set algebras use ∅.
// This package supplies the concrete value kinds used throughout the
// library plus equality and formatting helpers shared by the semiring,
// sparse, and assoc packages.
package value

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the concrete value domains the library ships with.
// User code may define additional domains by instantiating the generic
// kernels directly; Kind exists so CLIs and the registry can name the
// built-in ones.
type Kind uint8

// Built-in value domains.
const (
	KindFloat64 Kind = iota // non-negative reals / reals with ±Inf
	KindInt64               // integers (ring non-examples)
	KindString              // totally ordered strings, "" is zero
	KindSet                 // finite string sets, ∅ is zero
	KindBool                // two-element Boolean algebra
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindFloat64:
		return "float64"
	case KindInt64:
		return "int64"
	case KindString:
		return "string"
	case KindSet:
		return "set"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NegInf and PosInf are the IEEE infinities used as the zero elements of
// the max-plus and min-plus algebras respectively.
var (
	NegInf = math.Inf(-1)
	PosInf = math.Inf(1)
)

// Float64Equal reports whether two float64 values are equal, treating
// NaN as equal to NaN so that arrays containing propagated NaNs still
// compare reproducibly in tests.
func Float64Equal(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// FormatFloat renders a float64 the way the paper's figures do: integral
// values print without a decimal point ("13", not "13.000000"), and the
// infinities print as -Inf/+Inf.
func FormatFloat(v float64) string {
	switch {
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsInf(v, 1):
		return "+Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// ParseFloat parses the textual forms emitted by FormatFloat.
func ParseFloat(s string) (float64, error) {
	switch s {
	case "-Inf":
		return NegInf, nil
	case "+Inf", "Inf":
		return PosInf, nil
	}
	return strconv.ParseFloat(s, 64)
}
