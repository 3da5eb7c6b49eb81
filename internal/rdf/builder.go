package rdf

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"ksp/internal/geo"
	"ksp/internal/text"
)

// WKTLiteral is the datatype IRI used by GeoSPARQL for geometry literals.
const WKTLiteral = "http://www.opengis.net/ont/geosparql#wktLiteral"

// Builder accumulates triples (or direct vertices/edges from the synthetic
// generator) and produces an immutable Graph.
//
// Triple ingestion applies the simplification of the paper (Section 1,
// after Le et al.): triples whose object is a literal or a type do not
// create edges — their text is folded into the subject's document; triples
// whose object is an entity create a directed edge and contribute the
// predicate's tokens to the object's document; semantically meaningless
// link predicates (sameAs, linksTo, redirectTo, ...) are dropped; geometry
// triples set the subject's coordinates instead of creating structure.
type Builder struct {
	Vocab *text.Vocabulary

	// Analyzer normalizes document text (URIs, literals, predicate
	// descriptions). It must be set before any vertices or triples are
	// added — tokenization is eager — and the same analyzer is carried on
	// the built Graph so queries normalize identically. Predicate *policy*
	// matching (skip/type/geo lists) always uses plain tokenization,
	// independent of the analyzer.
	Analyzer text.Analyzer

	// SkipPredicates are lower-cased predicate local-name tokens whose
	// triples are ignored entirely (the paper removes sameAs/linksTo/
	// redirectTo edges before its experiments).
	SkipPredicates map[string]bool
	// TypePredicates are predicates treated as type assertions: the object
	// is folded into the subject's document.
	TypePredicates map[string]bool
	// GeoPredicates are predicates whose literal objects carry coordinates.
	GeoPredicates map[string]bool

	uris    []string
	uriIDs  map[string]uint32
	docs    [][]uint32
	edges   []edgeRec
	coords  map[uint32]geo.Point
	preds   []string
	predIDs map[string]uint32
}

type edgeRec struct {
	s, o, pred uint32
}

// NewBuilder returns a Builder with the default predicate policies.
func NewBuilder() *Builder {
	return &Builder{
		Vocab: text.NewVocabulary(),
		SkipPredicates: map[string]bool{
			"sameas": true, "linksto": true, "redirectto": true,
			"wikipageredirects": true, "wikipagewikilink": true,
		},
		TypePredicates: map[string]bool{"type": true},
		GeoPredicates: map[string]bool{
			"geometry": true, "hasgeometry": true, "point": true,
			"location": true, "georsspoint": true,
		},
		uriIDs:  make(map[string]uint32),
		coords:  make(map[uint32]geo.Point),
		predIDs: make(map[string]uint32),
	}
}

// AddVertex interns a vertex by URI, tokenizing the URI into the vertex's
// document, and returns its ID. Idempotent.
func (b *Builder) AddVertex(uri string) uint32 {
	if id, ok := b.uriIDs[uri]; ok {
		return id
	}
	id := uint32(len(b.uris))
	b.uriIDs[uri] = id
	b.uris = append(b.uris, uri)
	b.docs = append(b.docs, nil)
	for _, tok := range b.Analyzer.Analyze(uri) {
		b.docs[id] = append(b.docs[id], b.Vocab.ID(tok))
	}
	return id
}

// AddBareVertex interns a vertex without tokenizing its URI (the synthetic
// generator assigns documents explicitly).
func (b *Builder) AddBareVertex(uri string) uint32 {
	if id, ok := b.uriIDs[uri]; ok {
		return id
	}
	id := uint32(len(b.uris))
	b.uriIDs[uri] = id
	b.uris = append(b.uris, uri)
	b.docs = append(b.docs, nil)
	return id
}

// AddTermID appends an already-interned term to v's document.
func (b *Builder) AddTermID(v uint32, term uint32) {
	b.docs[v] = append(b.docs[v], term)
}

// AddText analyzes s and appends the resulting terms to v's document.
func (b *Builder) AddText(v uint32, s string) {
	for _, tok := range b.Analyzer.Analyze(s) {
		b.docs[v] = append(b.docs[v], b.Vocab.ID(tok))
	}
}

// AddEdge records a directed edge s -> o with a predicate name.
func (b *Builder) AddEdge(s, o uint32, pred string) {
	b.edges = append(b.edges, edgeRec{s: s, o: o, pred: b.predID(pred)})
}

func (b *Builder) predID(name string) uint32 {
	if id, ok := b.predIDs[name]; ok {
		return id
	}
	id := uint32(len(b.preds))
	b.predIDs[name] = id
	b.preds = append(b.preds, name)
	return id
}

// SetLocation marks v as a place at p and reports whether it did: a
// point with a NaN or infinite coordinate is refused, since no distance
// to it orders, and v keeps whatever location it had.
func (b *Builder) SetLocation(v uint32, p geo.Point) bool {
	if !p.Finite() {
		return false
	}
	b.coords[v] = p
	return true
}

// AddTriple ingests one RDF statement under the simplification policy.
// Returns false when the triple was skipped (skip-listed predicate or a
// malformed geometry literal).
func (b *Builder) AddTriple(t Triple) bool {
	if !t.S.IsEntity() {
		return false
	}
	predTokens := text.TokenizeSet(t.P.Value)
	if len(predTokens) > 0 && b.SkipPredicates[strings.Join(predTokens, "")] {
		return false
	}
	s := b.AddVertex(t.S.Value)

	// Geometry triple: parse coordinates, no edge, no document text.
	if b.isGeoPredicate(predTokens, t.O) {
		if pt, ok := ParsePointLiteral(t.O.Value); ok {
			b.SetLocation(s, pt)
			return true
		}
		return false
	}

	switch {
	case t.O.Kind == Literal:
		// Fold literal text (and the predicate's description) into the
		// subject's document.
		b.AddText(s, t.P.Value)
		b.AddText(s, t.O.Value)
	case b.isTypePredicate(predTokens):
		// Fold the type's name into the subject's document; no edge.
		b.AddText(s, t.P.Value)
		b.AddText(s, t.O.Value)
	default:
		o := b.AddVertex(t.O.Value)
		b.AddEdge(s, o, t.P.Value)
		// Predicate description goes to the object's document (Section 2).
		b.AddText(o, t.P.Value)
	}
	return true
}

func (b *Builder) isTypePredicate(predTokens []string) bool {
	return b.TypePredicates[strings.Join(predTokens, "")]
}

func (b *Builder) isGeoPredicate(predTokens []string, o Term) bool {
	if o.Kind == Literal && o.Datatype == WKTLiteral {
		return true
	}
	return b.GeoPredicates[strings.Join(predTokens, "")] && o.Kind == Literal
}

// ParsePointLiteral parses "POINT(x y)" (WKT, optional space after POINT)
// or a bare "lat lon" pair (georss style). For WKT, x is returned as
// Point.X and y as Point.Y; for bare pairs the first number becomes Y
// (latitude) per georss convention. Non-finite numbers (NaN, ±Inf) are
// malformed: no distance to such a point orders.
func ParsePointLiteral(s string) (geo.Point, bool) {
	s = strings.TrimSpace(s)
	upper := strings.ToUpper(s)
	if strings.HasPrefix(upper, "POINT") {
		rest := strings.TrimSpace(s[len("POINT"):])
		if len(rest) < 2 || rest[0] != '(' || rest[len(rest)-1] != ')' {
			return geo.Point{}, false
		}
		fields := strings.Fields(rest[1 : len(rest)-1])
		if len(fields) != 2 {
			return geo.Point{}, false
		}
		x, err1 := strconv.ParseFloat(fields[0], 64)
		y, err2 := strconv.ParseFloat(fields[1], 64)
		if p := (geo.Point{X: x, Y: y}); err1 == nil && err2 == nil && p.Finite() {
			return p, true
		}
		return geo.Point{}, false
	}
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return geo.Point{}, false
	}
	lat, err1 := strconv.ParseFloat(fields[0], 64)
	lon, err2 := strconv.ParseFloat(fields[1], 64)
	if p := (geo.Point{X: lon, Y: lat}); err1 == nil && err2 == nil && p.Finite() {
		return p, true
	}
	return geo.Point{}, false
}

// Build freezes the accumulated data into an immutable Graph. The Builder
// must not be used afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.uris)
	b.Vocab.Freeze()
	g := &Graph{
		Vocab:    b.Vocab,
		analyzer: b.Analyzer,
	}
	g.preds.Off = []uint32{0}
	for _, p := range b.preds {
		g.preds.Append(p)
	}

	// Flatten the URI table: the build-time []string + map give way to
	// one byte blob, uint32 offsets, and a URI-sorted permutation of
	// vertex IDs for lookups (see Graph.VertexByURI).
	var uriBytes int
	for _, u := range b.uris {
		uriBytes += len(u)
	}
	g.uris = text.Table{Blob: make([]byte, 0, uriBytes), Off: make([]uint32, 1, n+1)}
	for _, u := range b.uris {
		g.uris.Append(u)
	}
	g.uris.Sort()

	// Deduplicate identical (s, pred, o) edges, then lay out CSR.
	sort.Slice(b.edges, func(i, j int) bool {
		a, c := b.edges[i], b.edges[j]
		if a.s != c.s {
			return a.s < c.s
		}
		if a.o != c.o {
			return a.o < c.o
		}
		return a.pred < c.pred
	})
	edges := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		edges = append(edges, e)
	}

	g.outOff = make([]uint32, n+1)
	for _, e := range edges {
		g.outOff[e.s+1]++
	}
	for i := 0; i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	g.outEdges = make([]uint32, len(edges))
	g.outPreds = make([]uint32, len(edges))
	cursor := make([]uint32, n)
	for _, e := range edges {
		pos := g.outOff[e.s] + cursor[e.s]
		g.outEdges[pos] = e.o
		g.outPreds[pos] = e.pred
		cursor[e.s]++
	}

	g.inOff = make([]uint32, n+1)
	for _, e := range edges {
		g.inOff[e.o+1]++
	}
	for i := 0; i < n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	g.inEdges = make([]uint32, len(edges))
	for i := range cursor {
		cursor[i] = 0
	}
	for _, e := range edges {
		g.inEdges[g.inOff[e.o]+cursor[e.o]] = e.s
		cursor[e.o]++
	}

	// Documents: sort and deduplicate term IDs per vertex, CSR layout.
	g.docOff = make([]uint32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		d := b.docs[v]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		k := 0
		for i, t := range d {
			if i > 0 && t == d[i-1] {
				continue
			}
			d[k] = t
			k++
		}
		b.docs[v] = d[:k]
		total += k
		g.docOff[v+1] = uint32(total)
	}
	g.docTerms = make([]uint32, total)
	for v := 0; v < n; v++ {
		copy(g.docTerms[g.docOff[v]:], b.docs[v])
	}

	for v := range b.coords {
		g.places = append(g.places, v)
	}
	slices.Sort(g.places)
	g.placeOrd = make([]uint32, n)
	for v := range g.placeOrd {
		g.placeOrd[v] = NoVertex
	}
	g.coords = make([]geo.Point, len(g.places))
	for i, v := range g.places {
		g.placeOrd[v] = uint32(i)
		g.coords[i] = b.coords[v]
	}

	b.uris = nil
	b.uriIDs = nil
	b.docs = nil
	b.edges = nil
	return g
}
