package value

import (
	"sort"
	"strings"
)

// Set is a finite set of strings, the value domain of the paper's
// Section III example (document arrays whose entries are sets of shared
// words, multiplied with ⊕ = ∪ and ⊗ = ∩). A Set is stored as a sorted,
// deduplicated slice so that equality, hashing, and rendering are
// canonical. The zero value (nil slice) is the empty set ∅, which serves
// as the algebraic 0 of the union/intersection pair.
//
// Sets are immutable by convention: operations return new Sets and never
// mutate their receivers, so Sets may be shared freely across goroutines.
type Set []string

// NewSet builds a canonical Set from arbitrary words (unsorted,
// possibly duplicated). The empty string is not a word — it is dropped,
// keeping every Set representable by its rendered form (where "" means
// ∅ and "{}"-style literals cannot express an empty-string element).
func NewSet(words ...string) Set {
	if len(words) == 0 {
		return nil
	}
	s := make(Set, 0, len(words))
	for _, w := range words {
		if w != "" {
			s = append(s, w)
		}
	}
	if len(s) == 0 {
		return nil
	}
	sort.Strings(s)
	out := s[:1]
	for _, w := range s[1:] {
		if w != out[len(out)-1] {
			out = append(out, w)
		}
	}
	return out
}

// IsEmpty reports whether s is ∅.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s) }

// Contains reports whether w ∈ s.
func (s Set) Contains(w string) bool {
	i := sort.SearchStrings(s, w)
	return i < len(s) && s[i] == w
}

// Union returns s ∪ t. Union is the ⊕ of the Section III algebra; its
// identity is ∅.
func (s Set) Union(t Set) Set {
	if len(s) == 0 {
		return t
	}
	if len(t) == 0 {
		return s
	}
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t. Intersect is the ⊗ of the Section III
// algebra. Note that on the full power set this pair has zero divisors
// (disjoint non-empty sets intersect to ∅), which is exactly the paper's
// Boolean-algebra non-example; Section III shows structured incidence
// arrays avoid ever multiplying disjoint sets.
func (s Set) Intersect(t Set) Set {
	if len(s) == 0 || len(t) == 0 {
		return nil
	}
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Equal reports set equality.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// String renders the set as "{a,b,c}"; the empty set renders as "".
// Rendering ∅ as the empty string makes set-valued arrays print with
// blank cells for structural zeros, matching the figures.
func (s Set) String() string {
	if len(s) == 0 {
		return ""
	}
	return "{" + strings.Join(s, ",") + "}"
}
