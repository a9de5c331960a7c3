package serve

import (
	"math"
	"strconv"
	"unicode/utf8"

	"adjarray/internal/value"
)

// The append-style JSON primitives every read answer is written with.
// Their output is, byte for byte, what encoding/json's Encoder (HTML
// escaping on, its default) writes for the same string or float64 — the
// responses were json.Encoder output over maps before they were written
// from the kernels' vectors, and clients must not see the difference.
// FuzzAppendJSONString and FuzzAppendJSONFloat hold them to json.Marshal.

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries as themselves:
// everything printable but the quote, the backslash and the three
// characters the HTML-safe encoding escapes.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// appendJSONString appends s as a JSON string: two-character escapes for
// the quote, the backslash and \b \f \n \r \t, \u00XX for the other
// control bytes and for < > &, U+2028 and U+2029 as \u2028 and \u2029,
// and the six characters \ufffd for each byte that is not part of a valid
// UTF-8 sequence.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == 0x2028 || c == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as a JSON number in encoding/json's format
// (ES6 number-to-string: 'f' form, 'e' form below 1e-6 and from 1e21,
// exponents not padded). ±Inf and NaN, which JSON has no number for but
// the tropical algebras store as ordinary values (an unweighted max.min
// edge has width +Inf), are written as the library's FormatFloat string.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return appendJSONString(dst, value.FormatFloat(f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
