package server

import (
	"net/url"
	"testing"
)

// searchParamKeys are the keys parseQueryParams reads, with the field
// that holds each.
var searchParamKeys = []struct {
	key string
	get func(*queryParams) string
}{
	{"x", func(p *queryParams) string { return p.x }},
	{"y", func(p *queryParams) string { return p.y }},
	{"kw", func(p *queryParams) string { return p.kw }},
	{"k", func(p *queryParams) string { return p.k }},
	{"algo", func(p *queryParams) string { return p.algo }},
	{"trees", func(p *queryParams) string { return p.trees }},
	{"maxdist", func(p *queryParams) string { return p.maxdist }},
	{"trace", func(p *queryParams) string { return p.trace }},
	{"explain", func(p *queryParams) string { return p.explain }},
	{"n", func(p *queryParams) string { return p.n }},
	{"uri", func(p *queryParams) string { return p.uri }},
}

// checkSearchParams fails unless parseQueryParams(raw) reads every key
// as url.ParseQuery followed by Values.Get does.
func checkSearchParams(t *testing.T, raw string) {
	t.Helper()
	p := parseQueryParams(raw)
	q, _ := url.ParseQuery(raw) // a bad pair is dropped, the rest kept, as r.URL.Query() does
	for _, k := range searchParamKeys {
		if got, want := k.get(&p), q.Get(k.key); got != want {
			t.Errorf("%q: %s = %q, url.ParseQuery gives %q", raw, k.key, got, want)
		}
	}
}

// searchParamSeeds are query strings where a hand-written parser is
// easy to get wrong.
var searchParamSeeds = []string{
	"",
	// The benchmark's path shape.
	"x=49.52&y=77.2&kw=w4,w10,w771&k=5&algo=SP",
	"x=12.5&y=-3.25&kw=w1%2Cw2&k=10&window=0&trees=1",
	// Repeated keys, empty values, '+'.
	"k=1&k=2&x=1&x=",
	"x=&x=5",
	"kw=a+b&kw=c",
	"kw=+roman+,+history+",
	"x",
	"x&x=3",
	"=&==&&&x==1",
	// Bad escapes drop the pair; a later good one then wins.
	"x=%zz&x=4",
	"x=%&x=5",
	"x=%4",
	"%zz=1&x=2",
	"%78=7&x=8",
	"k%3D=3&k=4",
	"kw=%E2%80%A8&trace=1%",
	// ';' drops the whole pair.
	"x=1;y=2&y=3",
	"x=1&y=2;&explain=1",
	";&x=9",
	// Non-ASCII, escaped and not.
	"kw=café,naïve&x=1",
	"kw=%C3%A9%FF&algo=sp",
	"trace=perfetto&explain=true&maxdist=2.5",
	"TRACE=1&Trace=1&trace=chrome",
	// /nearest and /describe.
	"x=1&y=2&n=3&n=4",
	"uri=http%3A%2F%2Fexample.org%2Fresource%2FAbbey%3Fa%3Db&uri=x",
	"uri=ex:Caf%C3%A9+Royal",
}

func TestSearchParamsMatchParseQuery(t *testing.T) {
	for _, raw := range searchParamSeeds {
		checkSearchParams(t, raw)
	}
}

// FuzzSearchParams holds the one-pass query parser to url.ParseQuery and
// Values.Get for every key it reads.
func FuzzSearchParams(f *testing.F) {
	for _, raw := range searchParamSeeds {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		checkSearchParams(t, raw)
	})
}

// A plain request pays for no url.Values: parsing the benchmark's
// query string allocates nothing.
func TestSearchParamsZeroAlloc(t *testing.T) {
	const raw = "x=49.52&y=77.2&kw=w4,w10,w771&k=5&algo=SP&window=0"
	if n := testing.AllocsPerRun(100, func() { parseQueryParams(raw) }); n != 0 {
		t.Fatalf("parseQueryParams allocates %v times, want 0", n)
	}
}
