package serve

import (
	"encoding/json"
	"math"
	"testing"

	"adjarray/internal/value"
)

// The append primitives against json.Marshal, which escapes HTML as the
// Encoder the answers used to go through does. Seeded with the golden
// test's keys and values and the boundaries of every branch.

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range append([]string{
		"", "\u2028\u2029", "\xe2\x80", "\xe2\x80\xa8\xe2", "\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\ufffd",
		"\b\f\n\r\t", "\x01\x1f\x20\x7f\x80", "\U0001f600", `</script><!--&amp;-->`,
	}, goldenKeys...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); string(got) != string(want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		// Appending must extend, never rewrite, what the buffer holds.
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("appendJSONString onto a prefix = %s, want x%s", got, want)
		}
	})
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, vals := range goldenValues {
		for _, v := range vals {
			f.Add(v)
		}
	}
	for _, v := range []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e21, 1e-9, 1.5e-10, 1e-10, 1e22, 1e100, 1e-100,
		1 << 53, 1<<53 + 2, 1<<63 - 1024, 100, 0.1, 1.0 / 3, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Pi,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		var want []byte
		var err error
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no such number; the answers carry the library's string.
			want, err = json.Marshal(value.FormatFloat(v))
		} else {
			want, err = json.Marshal(v)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%v) = %s, json.Marshal = %s", v, got, want)
		}
	})
}
