package service

import (
	"math"
	"strconv"
	"unicode/utf8"

	"leo/internal/pareto"
)

// Hand-rolled JSON rendering for the serving hot path. The output is
// byte-identical to encoding/json marshalling of the same values (shortest
// round-trip floats, the same exponent-format thresholds and cleanup, the
// same HTML-escaped strings, a trailing newline like json.Encoder), so the
// bit-identity contract between HTTP plans and in-process controllers is
// preserved while steady-state plan serving allocates nothing per request.

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest form that round-trips, 'e' format only for very small or very
// large magnitudes, with the two-digit negative exponent shortened. Returns
// ok=false for NaN/Inf, which encoding/json refuses to encode.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string following encoding/json's
// default (HTML-escaping) rules: ", \, control characters, <, >, &, the
// line separators U+2028/U+2029, and invalid UTF-8 are escaped; everything
// else passes through verbatim. \b, \f, \n, \r and \t take their short
// forms, as encoding/json writes them since Go 1.22 (FuzzAppendJSON).
func appendJSONString(dst []byte, s string) []byte {
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
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendPlanJSON renders the /v1/plan success body — the wire form of
// planReply — byte-for-byte as json.Encoder would. ok=false means the plan
// carries a non-finite float and the caller must take the encoding/json
// path (which fails the same way it always has).
func appendPlanJSON(dst []byte, plan *pareto.Plan, rung string, gen uint64) (_ []byte, ok bool) {
	dst = append(dst, `{"allocations":`...)
	if plan.Allocations == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, a := range plan.Allocations {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Index":`...)
			dst = strconv.AppendInt(dst, int64(a.Index), 10)
			dst = append(dst, `,"Time":`...)
			if dst, ok = appendJSONFloat(dst, a.Time); !ok {
				return dst, false
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"idle_time":`...)
	if dst, ok = appendJSONFloat(dst, plan.IdleTime); !ok {
		return dst, false
	}
	dst = append(dst, `,"energy":`...)
	if dst, ok = appendJSONFloat(dst, plan.Energy); !ok {
		return dst, false
	}
	dst = append(dst, `,"rate":`...)
	if dst, ok = appendJSONFloat(dst, plan.Rate); !ok {
		return dst, false
	}
	dst = append(dst, `,"rung":`...)
	dst = appendJSONString(dst, rung)
	dst = append(dst, `,"gen":`...)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, '}', '\n')
	return dst, true
}

// appendObserveJSON renders the /v1/observe success body in the same
// (alphabetical) key order encoding/json gives the map the handler
// historically marshalled.
func appendObserveJSON(dst []byte, windows, dropped int, rung string, shed bool) []byte {
	dst = append(dst, `{"dropped":`...)
	dst = strconv.AppendInt(dst, int64(dropped), 10)
	dst = append(dst, `,"rung":`...)
	dst = appendJSONString(dst, rung)
	dst = append(dst, `,"shed":`...)
	dst = strconv.AppendBool(dst, shed)
	dst = append(dst, `,"windows":`...)
	dst = strconv.AppendInt(dst, int64(windows), 10)
	return append(dst, '}', '\n')
}
