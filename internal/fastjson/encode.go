// Package fastjson is the hand-rolled JSON codec under Serenade's HTTP edge.
//
// encoding/json costs the hot path a reflection walk, per-call encoder and
// decoder state, and an output allocation per request — at >10k req/s the
// serialisation layer, not the kernel, drives GC pauses (the kernel has been
// 0 allocs/op since PR 1). This package provides the primitives the serving
// and client codecs are built from: append-based encoding into caller-owned
// buffers and an iterative scanner-based decoder with no reflection.
//
// Compatibility contract: for every value encoding/json can marshal without
// error, the Append* functions produce byte-identical output (including HTML
// escaping and invalid-UTF-8 replacement); the decoder accepts exactly the
// inputs a json.Decoder accepts and yields the same values (including null
// no-ops, case-folded key matching and surrogate-pair repair). The contract
// is enforced by differential tests here and by FuzzFastJSON over the wire
// schemas in internal/serving. The one carve-out: NaN and infinities, which
// encoding/json rejects with UnsupportedValueError and the serving layer
// never produces (kernel scores are finite sums of finite weights).
package fastjson

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// smallsString is the paired-digit table shared by the integer encoders:
// two decimal digits per index, "00" through "99".
const smallsString = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// itemIDCacheSize bounds the precomputed decimal table for item ids. The
// table serves ids below this bound whatever their popularity: no index
// numbers items by popularity, so which share of a response's ids hits it
// depends on the catalogue, and its gain over strconv.AppendUint is
// unmeasured.
const itemIDCacheSize = 1 << 12

// itemIDCache holds the decimal form of ids 0..itemIDCacheSize-1, all slices
// of one shared backing array so the table costs one allocation.
var itemIDCache [itemIDCacheSize][]byte

func init() {
	var backing []byte
	starts := make([]int, itemIDCacheSize+1)
	for i := 0; i < itemIDCacheSize; i++ {
		starts[i] = len(backing)
		backing = strconv.AppendUint(backing, uint64(i), 10)
	}
	starts[itemIDCacheSize] = len(backing)
	for i := 0; i < itemIDCacheSize; i++ {
		itemIDCache[i] = backing[starts[i]:starts[i+1]:starts[i+1]]
	}
}

// AppendItemID appends the decimal form of a (32-bit) item id, serving hot
// ids from the precomputed table.
func AppendItemID(dst []byte, id uint32) []byte {
	if id < itemIDCacheSize {
		return append(dst, itemIDCache[id]...)
	}
	return AppendUint(dst, uint64(id))
}

// AppendUint appends the decimal form of v using the paired-digit table.
func AppendUint(dst []byte, v uint64) []byte {
	var buf [20]byte
	i := len(buf)
	for v >= 100 {
		is := v % 100 * 2
		v /= 100
		i -= 2
		buf[i] = smallsString[is]
		buf[i+1] = smallsString[is+1]
	}
	// v < 100
	is := v * 2
	i--
	buf[i] = smallsString[is+1]
	if v >= 10 {
		i--
		buf[i] = smallsString[is]
	}
	return append(dst, buf[i:]...)
}

// AppendInt appends the decimal form of v.
func AppendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		return AppendUint(dst, uint64(-v))
	}
	return AppendUint(dst, uint64(v))
}

// AppendFloat appends v exactly as encoding/json encodes a float64: shortest
// representation, 'f' form within [1e-6, 1e21), 'e' form outside it with the
// exponent's leading zero trimmed. NaN and infinities — which encoding/json
// refuses to encode at all — are outside the compatibility contract and are
// encoded as 0 so a corrupted score can never emit invalid JSON.
func AppendFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, '0')
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, matching encoding/json.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// htmlSafeSet reports ASCII bytes that can appear literally inside a JSON
// string with encoding/json's default HTML escaping: everything printable
// except `"`, `\`, `<`, `>`, `&`.
var htmlSafeSet = [utf8.RuneSelf]bool{}

func init() {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		htmlSafeSet[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&'} {
		htmlSafeSet[c] = false
	}
}

// AppendString appends s as a quoted JSON string, byte-identical to
// encoding/json's default (HTML-escaping) encoder: `"` `\` and the HTML
// characters escaped, control characters as \b \f \n \r \t or \u00XX,
// U+2028/U+2029 escaped, and invalid UTF-8 replaced with the literal
// \ufffd escape text.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafeSet[b] {
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
				// This encodes bytes < 0x20 except the cases above, and the
				// HTML characters <, > and &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but break JSONP; encoding/json
		// escapes them unconditionally, so the contract requires it here.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendBool appends true or false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}
