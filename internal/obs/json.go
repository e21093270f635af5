package obs

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The two JSON value encodings the report appenders (Span.AppendJSON,
// kvwire's Doc and SlowDoc) cannot write with strconv alone. Each emits
// exactly what encoding/json's Marshal emits for the same value, so a
// binary that writes its documents with them need not link the
// reflective encoder; readers keep decoding with encoding/json.

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string, escaped as Marshal
// escapes a string: '"' and '\\' backslashed; \b, \f, \n, \r and \t by
// name; every other byte below 0x20 and the HTML-sensitive '<', '>' and
// '&' as \u00XX; U+2028 and U+2029 as \u2028 and \u2029; and each byte
// of invalid UTF-8 as \ufffd. Everything else is copied.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// AppendJSONFloat appends f as Marshal writes a float64: the shortest
// decimal that reads back as f, in 'f' form, or in 'e' form with an
// unpadded exponent (1e-7, not 1e-07) when |f| < 1e-6 or |f| ≥ 1e21.
// Marshal refuses NaN and ±Inf, which JSON cannot carry; they are
// written as null, which a decoder reads as "no value".
func AppendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
