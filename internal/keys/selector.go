package keys

import (
	"fmt"
	"strings"
)

// Selector picks a subset of a key set. Implementations also expose scan
// bounds so Set.Select can skip irrelevant prefixes of the sorted key
// slice.
type Selector interface {
	// Match reports whether key k is selected.
	Match(k string) bool
	// bounds returns an optional half-open scan window [lo, hi) and
	// whether the window is meaningful. hi == "" means "to the end".
	bounds() (lo, hi string, ok bool)
}

// All selects every key.
type All struct{}

// Match always reports true.
func (All) Match(string) bool              { return true }
func (All) bounds() (string, string, bool) { return "", "", false }

// Range selects keys in the inclusive lexicographic interval [Lo, Hi].
// This is the paper's 'Genre|A : Genre|Z' notation.
type Range struct {
	Lo, Hi string
}

// Match reports Lo ≤ k ≤ Hi.
func (r Range) Match(k string) bool { return k >= r.Lo && k <= r.Hi }

func (r Range) bounds() (string, string, bool) {
	// Hi is inclusive; extend by one NUL to get an exclusive bound.
	return r.Lo, r.Hi + "\x00", true
}

// Prefix selects keys beginning with P — D4M's StartsWith selection,
// the idiomatic way to pick one exploded column family like "Writer|".
type Prefix struct {
	P string
}

// Match reports strings.HasPrefix(k, P).
func (p Prefix) Match(k string) bool { return strings.HasPrefix(k, p.P) }

func (p Prefix) bounds() (string, string, bool) {
	return p.P, prefixUpperBound(p.P), true
}

// prefixUpperBound returns the smallest string greater than every string
// with the given prefix, or "" when no such string exists.
func prefixUpperBound(p string) string {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// List selects an explicit set of keys (order and duplicates ignored).
type List struct {
	set map[string]struct{}
}

// NewList builds a List selector.
func NewList(ks ...string) List {
	m := make(map[string]struct{}, len(ks))
	for _, k := range ks {
		m[k] = struct{}{}
	}
	return List{set: m}
}

// Match reports membership in the list.
func (l List) Match(k string) bool {
	_, ok := l.set[k]
	return ok
}

func (l List) bounds() (string, string, bool) { return "", "", false }

// Parse understands the D4M-flavoured selector strings used by the CLIs
// and figures:
//
//	":"                     all keys
//	"a : b"                 inclusive range (spaces around ':' required)
//	"Writer|*"              prefix
//	"k1,k2,k3"              explicit list
//	"plain"                 single exact key
func Parse(expr string) (Selector, error) {
	expr = strings.TrimSpace(expr)
	switch {
	case expr == ":":
		return All{}, nil
	case strings.Contains(expr, " : "):
		parts := strings.SplitN(expr, " : ", 2)
		lo := strings.TrimSpace(parts[0])
		hi := strings.TrimSpace(parts[1])
		if lo == "" || hi == "" {
			return nil, fmt.Errorf("keys: malformed range %q", expr)
		}
		if lo > hi {
			return nil, fmt.Errorf("keys: inverted range %q", expr)
		}
		return Range{Lo: lo, Hi: hi}, nil
	case strings.HasSuffix(expr, "*"):
		p := strings.TrimSuffix(expr, "*")
		if p == "" {
			return All{}, nil
		}
		return Prefix{P: p}, nil
	case strings.Contains(expr, ","):
		parts := strings.Split(expr, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return NewList(parts...), nil
	case expr == "":
		return nil, fmt.Errorf("keys: empty selector")
	case strings.Contains(expr, ":"):
		return nil, fmt.Errorf("keys: malformed range %q (use \"lo : hi\" with spaced colon)", expr)
	default:
		return NewList(expr), nil
	}
}
