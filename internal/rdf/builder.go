package rdf

import (
	"slices"
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
//
// Which of these a triple gets depends on its predicate's local-name
// tokens, and the predicate's own text is the same every time it is
// folded in. So the Builder works out both once per distinct predicate
// IRI, at the predicate's first triple, and later triples cost a memo
// lookup (DESIGN §16.2a).
type Builder struct {
	Vocab *text.Vocabulary

	// Analyzer normalizes document text (URIs, literals, predicate
	// descriptions). It must be set before any vertices or triples are
	// added — tokenization is eager, and a predicate's terms are
	// remembered from its first triple — and the same analyzer is carried
	// on the built Graph so queries normalize identically. The predicate
	// policy (skip-listed, type and geometry predicates) is fixed for the
	// same reason: it is the package's predicatePolicy table, and no
	// field changes it. Policy matching always uses plain tokenization,
	// independent of the analyzer.
	Analyzer text.Analyzer

	uris    []string
	uriIDs  map[string]uint32
	docs    [][]uint32
	edges   []edgeRec
	coords  map[uint32]geo.Point
	preds   []string
	predIDs map[string]uint32

	// predMemo holds what AddTriple worked out for each predicate IRI.
	predMemo map[string]*predicate
	// lastSubj and lastSubjID remember the subject of the previous triple
	// (valid when haveSubj): dumps group triples by subject.
	lastSubj   string
	lastSubjID uint32
	haveSubj   bool
	// scratch is the buffer text analysis builds terms in.
	scratch []byte
}

type edgeRec struct {
	s, o, pred uint32
}

// predClass is how a predicate's triples are ingested.
type predClass uint8

const (
	predOther predClass = iota
	// predSkip: the triple is ignored entirely (the paper removes
	// sameAs/linksTo/redirectTo edges before its experiments).
	predSkip
	// predGeo: a literal object carries the subject's coordinates.
	predGeo
	// predType: a type assertion, the object folded into the subject's
	// document.
	predType
)

// predicatePolicy classes predicates by their lower-cased local-name
// tokens, joined; a predicate not in it is predOther.
var predicatePolicy = map[string]predClass{
	"sameas": predSkip, "linksto": predSkip, "redirectto": predSkip,
	"wikipageredirects": predSkip, "wikipagewikilink": predSkip,
	"type":     predType,
	"geometry": predGeo, "hasgeometry": predGeo, "point": predGeo,
	"location": predGeo, "georsspoint": predGeo,
}

// predicate is the memo entry of one predicate IRI. Its class is fixed
// at first sight. Its edge-predicate ID and term IDs are filled when
// first needed, not at first sight: both are numbered in first-use
// order, visible in the built Graph, and a predicate first seen on a
// skipped or geometry triple uses neither yet.
type predicate struct {
	class    predClass
	edge     uint32 // edge-predicate ID; valid when hasEdge
	hasEdge  bool
	terms    []uint32 // term IDs of the IRI's analyzed text; valid when analyzed
	analyzed bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		Vocab:    text.NewVocabulary(),
		uriIDs:   make(map[string]uint32),
		coords:   make(map[uint32]geo.Point),
		predIDs:  make(map[string]uint32),
		predMemo: make(map[string]*predicate),
	}
}

// AddVertex interns a vertex by URI, tokenizing the URI into the vertex's
// document, and returns its ID. Idempotent.
func (b *Builder) AddVertex(uri string) uint32 {
	if id, ok := b.uriIDs[uri]; ok {
		return id
	}
	id := b.AddBareVertex(uri)
	b.AddText(id, uri)
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
// A term s repeats is appended each time; Build keeps it once.
func (b *Builder) AddText(v uint32, s string) {
	b.docs[v] = b.appendTerms(b.docs[v], s)
}

// appendTerms appends the IDs of s's analyzed terms to dst, interning
// new ones.
func (b *Builder) appendTerms(dst []uint32, s string) []uint32 {
	b.scratch = b.Analyzer.Terms(b.scratch, s, func(term []byte) { dst = append(dst, b.Vocab.IDBytes(term)) })
	return dst
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
	p := b.predicate(t.P.Value)
	if p.class == predSkip {
		return false
	}
	s := b.subject(t.S.Value)

	// Geometry triple: parse coordinates, no edge, no document text.
	if t.O.Kind == Literal && (t.O.Datatype == WKTLiteral || p.class == predGeo) {
		if pt, ok := ParsePointLiteral(t.O.Value); ok {
			return b.SetLocation(s, pt)
		}
		return false
	}

	if t.O.Kind == Literal || p.class == predType {
		// Fold the literal's text, or the type's name, and the
		// predicate's description into the subject's document; no edge.
		b.docs[s] = append(b.docs[s], b.predTerms(p, t.P.Value)...)
		b.AddText(s, t.O.Value)
		return true
	}
	o := b.AddVertex(t.O.Value)
	if !p.hasEdge {
		p.edge, p.hasEdge = b.predID(t.P.Value), true
	}
	b.edges = append(b.edges, edgeRec{s: s, o: o, pred: p.edge})
	// Predicate description goes to the object's document (Section 2).
	b.docs[o] = append(b.docs[o], b.predTerms(p, t.P.Value)...)
	return true
}

// predicate returns iri's memo entry, classing the predicate on first
// sight.
func (b *Builder) predicate(iri string) *predicate {
	if p, ok := b.predMemo[iri]; ok {
		return p
	}
	p := &predicate{class: predicatePolicy[strings.Join(text.TokenizeSet(iri), "")]}
	// A clone: iri may be a slice of a much longer input line.
	b.predMemo[strings.Clone(iri)] = p
	return p
}

// predTerms returns the term IDs of p's text, interning them the first
// time p's text is added to a document: the point where the
// vocabulary would first see them if the text were analyzed per triple.
func (b *Builder) predTerms(p *predicate, iri string) []uint32 {
	if !p.analyzed {
		p.terms = b.appendTerms(nil, iri)
		slices.Sort(p.terms)
		p.terms, p.analyzed = slices.Compact(p.terms), true
	}
	return p.terms
}

// subject interns a triple's subject, without a map lookup when it is
// the previous triple's.
func (b *Builder) subject(uri string) uint32 {
	if !b.haveSubj || uri != b.lastSubj {
		b.lastSubj, b.lastSubjID, b.haveSubj = uri, b.AddVertex(uri), true
	}
	return b.lastSubjID
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

	// Out-lists: bucket the edges by subject with a counting pass, then
	// sort each subject's run by (object, predicate) — one uint64 key
	// each — and drop repeated edges while compacting the runs.
	g.outOff = make([]uint32, n+1)
	for _, e := range b.edges {
		g.outOff[e.s+1]++
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
	}
	keys := make([]uint64, len(b.edges))
	next := slices.Clone(g.outOff[:n])
	for _, e := range b.edges {
		keys[next[e.s]] = uint64(e.o)<<32 | uint64(e.pred)
		next[e.s]++
	}
	b.edges = nil
	m := uint32(0)
	for v := 0; v < n; v++ {
		run := keys[g.outOff[v]:g.outOff[v+1]]
		slices.Sort(run)
		g.outOff[v] = m
		for i, k := range run {
			if i == 0 || k != run[i-1] {
				keys[m] = k
				m++
			}
		}
	}
	g.outOff[n] = m
	g.outEdges = make([]uint32, m)
	g.outPreds = make([]uint32, m)
	for i, k := range keys[:m] {
		g.outEdges[i], g.outPreds[i] = uint32(k>>32), uint32(k)
	}

	// In-lists, the transpose: visiting subjects in ascending order
	// leaves each object's sources ascending.
	g.inOff = make([]uint32, n+1)
	for _, o := range g.outEdges {
		g.inOff[o+1]++
	}
	for v := 0; v < n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	g.inEdges = make([]uint32, m)
	copy(next, g.inOff[:n])
	for v := 0; v < n; v++ {
		for _, o := range g.Out(uint32(v)) {
			g.inEdges[next[o]] = uint32(v)
			next[o]++
		}
	}

	// Documents: sort and deduplicate term IDs per vertex, CSR layout.
	g.docOff = make([]uint32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		slices.Sort(b.docs[v])
		b.docs[v] = slices.Compact(b.docs[v])
		total += len(b.docs[v])
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
