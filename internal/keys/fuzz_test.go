package keys

import (
	"strings"
	"testing"
)

// FuzzParse hardens the D4M selector parser: no input may panic, and
// every accepted selector must behave consistently with its Match
// semantics on a fixed key set.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		":", "a : b", "Writer|*", "k1,k2", "plain", "", " : ", "x : ",
		"* : *", "a : b : c", "Genre|A : Genre|Z", ",", "a,,b", "*",
		"\x00", "a\xffb : z", strings.Repeat("k", 300),
	} {
		f.Add(seed)
	}
	keySet := New("Genre|Pop", "Genre|Rock", "Writer|Ann", "a", "b", "k1", "k2", "plain")
	f.Fuzz(func(t *testing.T, expr string) {
		sel, err := Parse(expr)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		sub, idx := keySet.Select(sel)
		if sub.Len() != len(idx) {
			t.Fatalf("Select size mismatch: %d keys, %d indices", sub.Len(), len(idx))
		}
		// Every selected key must Match; indices must be strictly
		// increasing and in range.
		for n := 0; n < sub.Len(); n++ {
			if !sel.Match(sub.Key(n)) {
				t.Fatalf("selected key %q does not Match", sub.Key(n))
			}
			if idx[n] < 0 || int(idx[n]) >= keySet.Len() {
				t.Fatalf("origin index %d out of range", idx[n])
			}
			if n > 0 && idx[n-1] >= idx[n] {
				t.Fatalf("origin indices not increasing: %v", idx)
			}
		}
		// And no unselected key may Match (completeness).
		selected := map[string]bool{}
		for n := 0; n < sub.Len(); n++ {
			selected[sub.Key(n)] = true
		}
		for n := 0; n < keySet.Len(); n++ {
			k := keySet.Key(n)
			if sel.Match(k) && !selected[k] {
				t.Fatalf("key %q Matches but was not selected", k)
			}
		}
	})
}
