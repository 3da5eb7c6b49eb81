package server

import (
	"net/url"
	"strings"
)

// queryParams are the query parameters the server reads, taken from the
// raw query string in one pass (parseQueryParams). ServeHTTP parses every
// request once, reads trace from the result, and hands it to /search,
// /keyword, /nearest and /describe, so no request builds a url.Values
// map or parses its query string twice.
type queryParams struct {
	x, y, kw, k, algo, trees, maxdist, trace, explain string
	n, uri                                            string
}

// parseQueryParams returns what url.ParseQuery(raw) followed by Get
// returns for each key queryParams holds: pairs split at '&', a pair
// holding ';' or a key or value that does not unescape is dropped, '+'
// is a space, and the first surviving value of a key wins. Unknown keys
// are skipped without unescaping their values.
func parseQueryParams(raw string) queryParams {
	var p queryParams
	var seen uint16
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := queryUnescape(key)
		if !ok {
			continue
		}
		dst, bit := p.field(key)
		if dst == nil || seen&bit != 0 {
			continue
		}
		if val, ok = queryUnescape(val); ok {
			*dst, seen = val, seen|bit
		}
	}
	return p
}

// field returns the slot of key and its bit in parseQueryParams's seen
// mask, nil for a key the server does not read.
func (p *queryParams) field(key string) (*string, uint16) {
	switch key {
	case "x":
		return &p.x, 1 << 0
	case "y":
		return &p.y, 1 << 1
	case "kw":
		return &p.kw, 1 << 2
	case "k":
		return &p.k, 1 << 3
	case "algo":
		return &p.algo, 1 << 4
	case "trees":
		return &p.trees, 1 << 5
	case "maxdist":
		return &p.maxdist, 1 << 6
	case "trace":
		return &p.trace, 1 << 7
	case "explain":
		return &p.explain, 1 << 8
	case "n":
		return &p.n, 1 << 9
	case "uri":
		return &p.uri, 1 << 10
	}
	return nil, 0
}

// queryUnescape is url.QueryUnescape, reporting failure as false; a
// string with nothing to unescape comes back as itself, unallocated.
func queryUnescape(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// traceMode is the rendering the ?trace= parameter selected;
// unrecognized values mean off.
func (p *queryParams) traceMode() traceOutput {
	switch p.trace {
	case "1", "true":
		return traceTree
	case "perfetto", "chrome":
		return tracePerfetto
	}
	return traceOff
}

// wantExplain reports whether the request asked for the EXPLAIN report.
func (p *queryParams) wantExplain() bool { return p.explain == "1" || p.explain == "true" }
