package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The /search (and /keyword, /nearest) payload is encoded by appending
// into a pooled buffer and written with one Write: reflection over
// SearchResponse was a visible share of a light request's CPU. The
// output is byte for byte what json.NewEncoder(w).Encode writes —
// TestSearchResponseMatchesEncodingJSON holds the two together — and a
// response the appender does not cover (trace, perfetto, explain, shards,
// result trees, a non-finite float) goes to encoding/json as before.

// encodePool recycles response buffers; one over maxPooledEncode bytes is
// dropped rather than kept, so a rare huge answer does not pin its buffer.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledEncode = 64 << 10

// writeSearch writes resp as JSON, through the appender when it covers
// resp, else through writeJSON.
func (s *Server) writeSearch(w http.ResponseWriter, resp *SearchResponse) {
	bp := encodePool.Get().(*[]byte)
	b, ok := appendSearchResponse((*bp)[:0], resp)
	if !ok {
		encodePool.Put(bp)
		s.writeJSON(w, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(b); err != nil {
		s.log().Debug("response encode failed", "err", err)
	}
	if cap(b) <= maxPooledEncode {
		*bp = b
		encodePool.Put(bp)
	}
}

// appendSearchResponse appends resp's encoding/json encoding, trailing
// newline included, to b. It reports false, with b in an unspecified
// state, for a response it leaves to encoding/json.
func appendSearchResponse(b []byte, resp *SearchResponse) ([]byte, bool) {
	if len(resp.Shards) > 0 || resp.Trace != nil || resp.Perfetto != nil || resp.Explain != nil {
		return b, false
	}
	b = append(b, `{"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			r := &resp.Results[i]
			if len(r.Tree) > 0 {
				return b, false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"place":`...)
			b = strconv.AppendUint(b, uint64(r.Place), 10)
			b = append(b, `,"uri":`...)
			b = appendJSONString(b, r.URI)
			var ok bool
			for _, f := range [...]struct {
				name string
				v    float64
			}{{`,"score":`, r.Score}, {`,"looseness":`, r.Looseness}, {`,"distance":`, r.Distance}, {`,"x":`, r.X}, {`,"y":`, r.Y}} {
				b = append(b, f.name...)
				if b, ok = appendJSONFloat(b, f.v); !ok {
					return b, false
				}
			}
			b = append(b, `,"exact":`...)
			b = strconv.AppendBool(b, r.Exact)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if resp.Partial {
		b = append(b, `,"partial":true`...)
	}
	if resp.ScoreLowerBound != 0 {
		b = append(b, `,"scoreLowerBound":`...)
		var ok bool
		if b, ok = appendJSONFloat(b, resp.ScoreLowerBound); !ok {
			return b, false
		}
	}
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	st := &resp.Stats
	b = append(b, `,"stats":{"algorithm":`...)
	b = appendJSONString(b, st.Algorithm)
	b = appendInt(b, `,"millis":`, st.Millis)
	b = appendInt(b, `,"micros":`, st.Micros)
	b = appendInt(b, `,"tqspComputations":`, st.TQSPComputations)
	b = appendInt(b, `,"rtreeNodeAccesses":`, st.RTreeNodeAccesses)
	b = append(b, `,"timedOut":`...)
	b = strconv.AppendBool(b, st.TimedOut)
	if st.Cancelled {
		b = append(b, `,"cancelled":true`...)
	}
	return append(b, "}}\n"...), true
}

func appendInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest representation, in 'e' notation below 1e-6 and from 1e21 on,
// with a one-digit negative exponent unpadded. Non-finite values are
// encoding/json's error, reported here as false.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json does with HTML
// escaping on: '"' and '\\' and the control characters escaped (\b, \f,
// \n, \r, \t by name), '<', '>' and '&' as \u00XX, U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
