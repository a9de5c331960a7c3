package value

import (
	"testing"
)

// FuzzParseFloat checks the float codec never panics and round-trips
// every value it accepts.
func FuzzParseFloat(f *testing.F) {
	for _, seed := range []string{"0", "-3", "2.5", "-Inf", "+Inf", "Inf", "NaN", "1e308", "x", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		v, err := ParseFloat(input)
		if err != nil {
			return
		}
		back, err := ParseFloat(FormatFloat(v))
		if err != nil {
			t.Fatalf("FormatFloat produced unparseable %q", FormatFloat(v))
		}
		if !Float64Equal(v, back) {
			t.Fatalf("round trip %q: %v != %v", input, v, back)
		}
	})
}
