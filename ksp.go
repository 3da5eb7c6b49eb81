// Package ksp implements top-k relevant semantic place retrieval on
// spatial RDF data, after Shi, Wu and Mamoulis, SIGMOD 2016.
//
// A kSP query takes a location, a set of keywords and a count k, and
// returns the k places (spatial entities of the RDF graph) whose semantic
// neighbourhoods cover the keywords most tightly while lying close to the
// query location. No SPARQL and no schema knowledge is required.
//
// Typical use:
//
//	ds, err := ksp.OpenFile("data.nt", ksp.DefaultConfig())
//	...
//	results, err := ds.Search(ksp.Query{
//		Loc:      ksp.Point{X: 43.51, Y: 4.75},
//		Keywords: []string{"ancient", "roman", "catholic", "history"},
//		K:        5,
//	})
//
// Search runs the paper's fastest algorithm (SP) when the α-radius index
// is built; SearchWith exposes all four evaluation strategies (BSP, SPP,
// SP, TA) together with their cost statistics for benchmarking.
package ksp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"

	"ksp/internal/alpha"
	"ksp/internal/core"
	"ksp/internal/geo"
	"ksp/internal/nt"
	"ksp/internal/obs"
	"ksp/internal/rdf"
	"ksp/internal/store"
	"ksp/internal/text"
)

// Point is a planar location (X/Y or lon/lat — the library is agnostic,
// distances are Euclidean).
type Point = geo.Point

// Query is a kSP query: a location, keywords, and the number of places.
type Query = core.Query

// Result is one retrieved semantic place.
type Result = core.Result

// Tree is a materialized tightest qualified semantic place (TQSP).
type Tree = core.Tree

// TreeNode is one vertex of a Tree.
type TreeNode = core.TreeNode

// Stats carries the per-query cost counters of the underlying algorithm.
type Stats = core.Stats

// Options tunes one query execution (deadline, tree materialization,
// radius, cancellation).
type Options = core.Options

// Bound is a top-k threshold shared by several evaluations of one query
// over disjoint place sets (Options.Bound) — how the tiles of a sharded
// gather cooperate on a single θ.
type Bound = core.Bound

// NewBound returns an empty shared threshold for a top-k query.
func NewBound(k int) *Bound { return core.NewBound(k) }

// Registry is a metrics registry: engines and servers record into it,
// and it renders in Prometheus text exposition format (WriteText) or as
// JSON-friendly samples (Snapshot). See Dataset.EnableMetrics.
type Registry = obs.Registry

// MetricPoint is one metric sample from Registry.Snapshot.
type MetricPoint = obs.MetricPoint

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Trace records the timed span tree of one query. Create one with
// NewTrace, pass it via Options.Trace, and render it with its JSON
// method after the query returns. A nil Trace disables tracing at zero
// cost.
type Trace = obs.Trace

// SpanJSON is the rendered form of a Trace.
type SpanJSON = obs.SpanJSON

// NewTrace starts a query trace whose root span has the given name.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// PerfettoTrace is a span tree rendered in the Chrome/Perfetto
// trace_event JSON shape, ready to open in a flamegraph viewer.
type PerfettoTrace = obs.PerfettoTrace

// PerfettoFromSpan converts a rendered trace (Trace.JSON) to
// trace_event form. Nil in, nil out.
func PerfettoFromSpan(root *SpanJSON) *PerfettoTrace { return obs.PerfettoFromSpan(root) }

// ExplainReport is a query's structured plan + execution profile: the
// algorithm and pruning rules chosen, the Rule-1 keyword order, and the
// per-rule/per-phase cost counters the run actually incurred. See Dataset.Explain.
type ExplainReport = core.ExplainReport

// ExplainPlan is the plan section of an ExplainReport.
type ExplainPlan = core.ExplainPlan

// ExplainProfile is the execution-profile section of an ExplainReport.
type ExplainProfile = core.ExplainProfile

// ExplainShard is one shard's dispatch record in a sharded
// ExplainReport (filled by the serving layer).
type ExplainShard = core.ExplainShard

// PanicError reports a panic recovered during query evaluation: the
// query failed, but the dataset and the process are intact. Detect it
// with errors.As to distinguish an internal fault (HTTP 500 territory)
// from a bad request.
type PanicError = core.PanicError

// ErrBadCoordinate rejects queries carrying NaN or infinite coordinates
// (or a NaN distance cap) before they reach the spatial index, whose
// comparisons silently misbehave on non-finite values, and places given
// such coordinates (Builder.Build). Detect with errors.Is.
var ErrBadCoordinate = errors.New("ksp: coordinates must be finite")

// Ranking is the aggregate scoring function f(looseness, distance).
type Ranking = core.Ranking

// ProductRanking is f = L × S (Equation 2 of the paper; the default).
type ProductRanking = core.ProductRanking

// WeightedSumRanking is f = β·L + (1−β)·S (Equation 1).
type WeightedSumRanking = core.WeightedSumRanking

// Triple is an RDF statement for programmatic ingestion.
type Triple = rdf.Triple

// Direction selects how semantic trees grow from their roots.
type Direction = rdf.Direction

// Traversal directions.
const (
	// Outgoing follows subject→object edges (the paper's definition).
	Outgoing = rdf.Outgoing
	// Undirected disregards edge direction (the paper's future-work
	// variant).
	Undirected = rdf.Undirected
)

// Algorithm selects the query evaluation strategy.
type Algorithm = core.Algorithm

// The four strategies of the paper's evaluation.
const (
	// AlgoBSP is the basic method (Section 3).
	AlgoBSP = core.AlgoBSP
	// AlgoSPP adds unqualified-place and dynamic-bound pruning
	// (Section 4).
	AlgoSPP = core.AlgoSPP
	// AlgoSP adds the α-radius bounds over places and R-tree nodes
	// (Section 5) — the paper's fastest.
	AlgoSP = core.AlgoSP
	// AlgoTA is the threshold-algorithm baseline (Section 6.2.6).
	AlgoTA = core.AlgoTA
)

// ParseAlgorithm returns the algorithm named s ("BSP", "SPP", "SP" or
// "TA"), ignoring case.
func ParseAlgorithm(s string) (Algorithm, bool) { return core.ParseAlgorithm(s) }

// Config controls index construction.
type Config struct {
	// Direction of semantic-tree growth; Outgoing matches the paper.
	Direction Direction
	// AlphaRadius is the α of the word-neighbourhood index; 0 disables it
	// (and with it AlgoSP). The paper recommends α = 3. Values above 255
	// are a construction error: a distance is stored in one byte.
	AlphaRadius int
	// Reachability enables the keyword reachability index behind Pruning
	// Rule 1 (required by AlgoSPP).
	Reachability bool
	// Ranking overrides the scoring function; nil means ProductRanking.
	Ranking Ranking
	// Mmap serves a snapshot opened with LoadSnapshot from a read-only
	// memory mapping: the graph's arrays (documents, adjacency, URIs,
	// vocabulary, places), the R-tree, the reachability labels and the
	// α-radius inverted files are read in place out of the page cache,
	// with none of them on the heap. Without it, or where the file cannot
	// be mapped, the file is read onto the heap once at open, into one
	// buffer the same arrays view. Results are identical either way.
	Mmap bool
	// RemoveStopwords drops common English glue words from documents and
	// query keywords alike.
	RemoveStopwords bool
	// Stemming applies Porter stemming to documents and keywords, so
	// morphological variants match ("architecture" ~ "architectural").
	Stemming bool
}

// validate refuses what no index can be built for. AlphaRadius above
// alpha.MaxRadius is the one such setting: distances are stored in a
// byte, and a larger α would wrap them and lift the Lemma 2/4 bounds
// above the true looseness — wrong answers, not slow ones.
func (c Config) validate() error {
	if c.AlphaRadius > 0 {
		if err := alpha.CheckRadius(c.AlphaRadius); err != nil {
			return fmt.Errorf("ksp: Config.AlphaRadius: %w", err)
		}
	}
	return nil
}

func (c Config) analyzer() text.Analyzer {
	return text.Analyzer{RemoveStopwords: c.RemoveStopwords, Stemming: c.Stemming}
}

// DefaultConfig returns the paper's recommended setup: outgoing edges,
// α = 3, reachability on, product ranking.
func DefaultConfig() Config {
	return Config{Direction: Outgoing, AlphaRadius: 3, Reachability: true}
}

// Dataset is an immutable, fully indexed spatial RDF dataset. It is safe
// for concurrent queries.
type Dataset struct {
	g      *rdf.Graph
	engine *core.Engine
	cfg    Config
	snap   *store.Snapshot // non-nil when opened with LoadSnapshot
}

// Close releases the mapping a memory-mapped dataset serves from (the
// snapshot file its graph and indexes are views of). Other datasets need
// no Close; calling it is a harmless no-op. The dataset must not serve
// queries after Close.
func (d *Dataset) Close() error {
	if d.snap != nil {
		return d.snap.Close()
	}
	return nil
}

// Open parses N-Triples from r and indexes the data.
func Open(r io.Reader, cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err // before the parse, not after it
	}
	b := rdf.NewBuilder()
	b.Analyzer = cfg.analyzer()
	if _, err := nt.Load(r, b); err != nil {
		return nil, err
	}
	return finish(b, cfg)
}

// OpenFile is Open over a file path.
func OpenFile(path string, cfg Config) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//ksplint:ignore droppederr -- file opened read-only; Close cannot lose data
	defer f.Close()
	return Open(f, cfg)
}

func finish(b *rdf.Builder, cfg Config) (*Dataset, error) {
	return NewDatasetFromGraph(b.Build(), cfg)
}

// NewDatasetFromGraph indexes an already-built graph into a Dataset,
// applying cfg exactly like Open does after parsing. It exists for
// in-module tooling — the served benchmark and tests feed synthetic
// graphs (internal/gen) straight into a live server — and is not
// callable from outside the module, since the graph type lives in an
// internal package.
func NewDatasetFromGraph(g *rdf.Graph, cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := core.NewEngine(g, cfg.Direction)
	if cfg.Ranking != nil {
		e.Rank = cfg.Ranking
	}
	if cfg.Reachability {
		e.EnableReach()
	}
	if cfg.AlphaRadius > 0 {
		e.EnableAlpha(cfg.AlphaRadius)
	}
	return &Dataset{g: g, engine: e, cfg: cfg}, nil
}

// Search answers q with the strongest available algorithm: SP when the
// α-radius index exists, otherwise SPP when reachability exists,
// otherwise BSP.
func (d *Dataset) Search(q Query) ([]Result, error) {
	algo := AlgoBSP
	switch {
	case d.engine.Alpha != nil:
		algo = AlgoSP
	case d.engine.Reach != nil:
		algo = AlgoSPP
	}
	res, _, err := d.SearchWith(algo, q, Options{})
	return res, err
}

// SearchWith answers q with an explicit algorithm and returns its cost
// statistics.
func (d *Dataset) SearchWith(algo Algorithm, q Query, opts Options) ([]Result, *Stats, error) {
	if !q.Loc.Finite() {
		return nil, &Stats{}, fmt.Errorf("%w: query location (%v, %v)", ErrBadCoordinate, q.Loc.X, q.Loc.Y)
	}
	if math.IsNaN(opts.MaxDist) {
		return nil, &Stats{}, fmt.Errorf("%w: MaxDist is NaN", ErrBadCoordinate)
	}
	return d.engine.Search(algo, q, opts)
}

// Explain answers q exactly like SearchWith and additionally returns
// the structured plan + execution profile — the EXPLAIN surface behind
// /search?explain=1 and kspquery -explain. The report is assembled from
// the run's Stats; no span capture is involved.
func (d *Dataset) Explain(algo Algorithm, q Query, opts Options) ([]Result, *ExplainReport, error) {
	res, stats, err := d.SearchWith(algo, q, opts)
	if err != nil {
		return res, nil, err
	}
	return res, d.engine.Explain(algo, q, opts, stats, len(res)), nil
}

// ExplainFor assembles an ExplainReport for a query that already ran
// (with SearchWith) and produced stats — the server uses it to attach
// EXPLAIN output without evaluating twice.
func (d *Dataset) ExplainFor(algo Algorithm, q Query, opts Options, stats *Stats, results int) *ExplainReport {
	return d.engine.Explain(algo, q, opts, stats, results)
}

// AlphaRadius reports the α of the word-neighbourhood index, 0 when the
// index is absent (diagnostics surfaces record it as part of the query's
// plan context).
func (d *Dataset) AlphaRadius() int {
	if a := d.engine.Alpha; a != nil {
		return a.Alpha
	}
	return 0
}

// Save persists the dataset — the graph, the R-tree, and, when present,
// the expensive α-radius index and the reachability labels — to a
// snapshot file. LoadSnapshot restores it without re-running the
// α-neighbourhood construction, which dominates preprocessing time (Table
// 5 of the paper), and without rebuilding the R-tree or the labels. The
// file at path is replaced, never rewritten, so a dataset mapped from it
// — this one included — keeps serving the snapshot it opened.
func (d *Dataset) Save(path string) error {
	snap := &store.Snapshot{Graph: d.g, Tree: d.engine.Tree, Reach: d.engine.Reach, Dir: d.cfg.Direction}
	if a := d.engine.Alpha; a != nil {
		snap.AlphaRadius = a.Alpha
		snap.AlphaPlace = a.PlaceIdx
		snap.AlphaNode = a.NodeIdx
	}
	return store.SaveFile(path, snap)
}

// LoadSnapshot restores a dataset saved with Save. The R-tree and the
// α-radius index come from the snapshot, the latter overriding
// cfg.AlphaRadius; so do the reachability labels when cfg.Reachability
// is set and the snapshot holds them (they are built otherwise). Only the
// document index is rebuilt. The traversal direction is taken from the
// snapshot.
//
// With cfg.Mmap the snapshot is mapped read-only, and the graph —
// documents, adjacency, URIs, vocabulary, places — the R-tree, the
// reachability labels and the α-radius inverted files are read in place
// from the mapping, which the kernel pages in on demand; a mapped dataset
// holds the mapping, so call Close when done. Without cfg.Mmap, or where
// files cannot be mapped, the file is read onto the heap. Query results
// are identical either way. Only snapshots of the current format load: an
// older one is refused, naming its version, and is rebuilt from its
// source with OpenFile or Builder and saved again.
func LoadSnapshot(path string, cfg Config) (*Dataset, error) {
	snap, err := store.OpenDisk(path, cfg.Mmap)
	if err != nil {
		return nil, err
	}
	ds, err := datasetFromSnapshot(snap, cfg)
	if err != nil {
		return nil, errors.Join(err, snap.Close())
	}
	ds.snap = snap
	return ds, nil
}

// LoadSnapshotDisk is LoadSnapshot.
//
// Deprecated: use LoadSnapshot, which honours cfg.Mmap.
func LoadSnapshotDisk(path string, cfg Config) (*Dataset, error) { return LoadSnapshot(path, cfg) }

// datasetFromSnapshot assembles the engine around a restored snapshot:
// the R-tree comes from the snapshot; the reachability labels do when
// cfg.Reachability asks for them and the snapshot has them, and are built
// when it has none; the α index comes from the snapshot when present; and
// the traversal direction always follows the snapshot. Only the document
// index is built.
func datasetFromSnapshot(snap *store.Snapshot, cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Direction = snap.Dir
	g := snap.Graph
	e := core.NewEngineOver(g, snap.Tree, cfg.Direction)
	if cfg.Ranking != nil {
		e.Rank = cfg.Ranking
	}
	switch {
	case !cfg.Reachability:
	case snap.Reach != nil:
		e.Reach = snap.Reach
	default:
		e.EnableReach()
	}
	if ix := snap.AlphaIndex(); ix != nil {
		e.SetAlpha(ix)
	} else if cfg.AlphaRadius > 0 {
		e.EnableAlpha(cfg.AlphaRadius)
	}
	return &Dataset{g: g, engine: e, cfg: cfg}, nil
}

// EnableMetrics registers the engine's instruments (query counters and
// latency histograms per algorithm, TQSP and pruning counters, and
// R-tree access counters) in reg and starts recording into
// them. Call once, before serving queries; a dataset without metrics
// enabled evaluates queries with zero observability overhead.
func (d *Dataset) EnableMetrics(reg *Registry) { d.engine.EnableMetrics(reg) }

// URI returns the URI (or blank-node label) of a vertex from a Result or
// Tree.
func (d *Dataset) URI(v uint32) string { return d.g.URI(v) }

// TightestTrees returns every tightest qualified semantic place rooted at
// the given place vertex — all trees tied at the minimum looseness, up to
// limit — together with that looseness (+Inf when the place cannot cover
// the keywords). This is option (2) of the paper's footnote 2, where a
// kSP result carries the full set of tied trees rather than an arbitrary
// representative.
func (d *Dataset) TightestTrees(place uint32, keywords []string, limit int) ([]*Tree, float64, error) {
	return d.engine.TQSPSet(place, keywords, limit)
}

// SearchBatch evaluates many queries concurrently (the dataset is
// immutable, so queries parallelize perfectly) and returns the results in
// input order. parallelism <= 0 selects GOMAXPROCS.
func (d *Dataset) SearchBatch(queries []Query, parallelism int) ([][]Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	out := make([][]Result, len(queries))
	errs := make([]error, len(queries))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q Query) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = d.Search(q)
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// KeywordSearch answers a location-free keyword query: the k places with
// the tightest semantic trees covering all keywords, ranked purely by
// looseness (the classic RDF keyword-search model restricted to place
// roots). Result.Dist is zero and Score equals Looseness.
func (d *Dataset) KeywordSearch(keywords []string, k int) ([]Result, error) {
	res, _, err := d.engine.KeywordTopK(keywords, k, Options{})
	return res, err
}

// NearestPlaces returns up to n places in ascending Euclidean distance
// from loc, irrespective of keywords. Non-finite coordinates yield no
// results (R-tree distance ordering is undefined on them).
func (d *Dataset) NearestPlaces(loc Point, n int) []Result {
	if !loc.Finite() {
		return nil
	}
	br := d.engine.Tree.NewBrowser(loc)
	var out []Result
	for len(out) < n {
		it, dist, ok := br.Next()
		if !ok {
			break
		}
		out = append(out, Result{Place: it.ID, Dist: dist})
	}
	return out
}

// PlacesWithin returns the places inside the axis-aligned rectangle
// spanned by the two corner points, in ascending vertex-ID order.
// Non-finite corners yield no results.
func (d *Dataset) PlacesWithin(a, b Point) []uint32 {
	if !a.Finite() || !b.Finite() {
		return nil
	}
	out := d.engine.Tree.Search(geo.RectFromPoint(a).ExpandPoint(b), nil)
	slices.Sort(out)
	return out
}

// VertexByURI resolves an entity URI to the vertex ID used in Results and
// Trees; ok is false for unknown URIs.
func (d *Dataset) VertexByURI(uri string) (uint32, bool) { return d.g.VertexByURI(uri) }

// Location returns the coordinates of a place vertex; ok is false for
// non-places.
func (d *Dataset) Location(v uint32) (Point, bool) {
	if int(v) >= d.g.NumVertices() || !d.g.IsPlace(v) {
		return Point{}, false
	}
	return d.g.Loc(v), true
}

// Describe returns the document terms of a vertex — the keyword set the
// engine matches against.
func (d *Dataset) Describe(v uint32) []string {
	doc := d.g.Doc(v)
	out := make([]string, len(doc))
	for i, t := range doc {
		out[i] = d.g.Vocab.Term(t)
	}
	return out
}

// DatasetStats summarizes a dataset.
type DatasetStats struct {
	Vertices int
	Edges    int
	Places   int
	Terms    int
	// MemoryMapped reports whether the dataset is served from a memory
	// mapping of its snapshot: the graph, its documents, the R-tree, the
	// reachability labels and the α-radius inverted files are then read in
	// place from the mapping rather than from the heap. A snapshot opened
	// without Config.Mmap, or on a platform that does not map files, is
	// held on the heap.
	MemoryMapped bool
}

// Stats returns dataset summary statistics.
func (d *Dataset) Stats() DatasetStats {
	st := DatasetStats{
		Vertices: d.g.NumVertices(),
		Edges:    d.g.NumEdges(),
		Places:   len(d.g.Places()),
		Terms:    d.g.Vocab.Len(),
	}
	st.MemoryMapped = d.snap != nil && d.snap.Mapped()
	return st
}

// Builder assembles a dataset programmatically, without N-Triples.
type Builder struct {
	b   *rdf.Builder
	err error // the first place refused, reported by Build
}

// NewBuilder returns an empty dataset builder with plain tokenization.
// Use NewBuilderWith to enable stemming or stopword removal — text is
// analyzed as it is added, so the analyzer must be fixed up front (the
// Config passed to Build does not change it).
func NewBuilder() *Builder {
	return &Builder{b: rdf.NewBuilder()}
}

// NewBuilderWith returns a dataset builder whose text analysis follows
// cfg's RemoveStopwords/Stemming settings.
func NewBuilderWith(cfg Config) *Builder {
	b := rdf.NewBuilder()
	b.Analyzer = cfg.analyzer()
	return &Builder{b: b}
}

// AddTriple ingests one RDF statement (literal objects fold into the
// subject's document, entity objects become graph edges; see the paper's
// document-construction scheme). It reports whether the triple was used.
func (b *Builder) AddTriple(t Triple) bool { return b.b.AddTriple(t) }

// AddFact records an entity-to-entity statement.
func (b *Builder) AddFact(subject, predicate, object string) {
	b.b.AddTriple(rdf.Triple{S: rdf.NewIRI(subject), P: rdf.NewIRI(predicate), O: rdf.NewIRI(object)})
}

// AddLabel attaches literal text to an entity's document.
func (b *Builder) AddLabel(subject, predicate, text string) {
	b.b.AddTriple(rdf.Triple{S: rdf.NewIRI(subject), P: rdf.NewIRI(predicate), O: rdf.NewLiteral(text)})
}

// AddPlace declares an entity as a place at the given coordinates. Both
// must be finite; Build reports the first place that is not.
func (b *Builder) AddPlace(subject string, loc Point) {
	v := b.b.AddVertex(subject)
	if !b.b.SetLocation(v, loc) && b.err == nil {
		b.err = fmt.Errorf("%w: place %q at (%v, %v)", ErrBadCoordinate, subject, loc.X, loc.Y)
	}
}

// Build freezes the data and constructs all indexes. It fails, with an
// error naming the subject, when AddPlace was given a NaN or infinite
// coordinate. The Builder must not be reused afterwards.
func (b *Builder) Build(cfg Config) (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	return finish(b.b, cfg)
}
