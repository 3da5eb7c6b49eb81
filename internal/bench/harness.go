// Package bench reproduces the paper's evaluation (Section 6): one
// experiment per table and figure, each regenerating the rows or series
// the paper reports. The absolute numbers differ — the substrate is a
// synthetic laptop-scale dataset, not the authors' 8M-vertex dumps on
// their testbed — but the shapes (who wins, by what factor, where the
// crossovers fall) are the reproduction target; EXPERIMENTS.md records
// paper-vs-measured for each experiment.
package bench

import (
	"fmt"
	"io"
	"time"

	"ksp/internal/core"
	"ksp/internal/gen"
	"ksp/internal/geo"
	"ksp/internal/obs"
	"ksp/internal/rdf"
)

// Suite runs the experiments over lazily built datasets.
type Suite struct {
	// Scale is the vertex count of each synthetic dataset.
	Scale int
	// Queries per setting (the paper uses 100).
	Queries int
	// Seed drives all generation.
	Seed int64
	// BSPDeadline caps each BSP (and TA) query, mirroring the paper's
	// 120-second abort at full scale.
	BSPDeadline time.Duration
	// Out receives the reports.
	Out io.Writer
	// Metrics, when non-nil, is attached to every engine the suite
	// builds, so a run's cumulative engine counters (TQSP computations,
	// pruning hits, …) can be exported next to the report tables. Set
	// before the first experiment.
	Metrics *obs.Registry

	data map[string]*benchData
}

// NewSuite returns a Suite with the given scale and workload size.
func NewSuite(scale, queries int, seed int64, out io.Writer) *Suite {
	return &Suite{
		Scale:       scale,
		Queries:     queries,
		Seed:        seed,
		BSPDeadline: 5 * time.Second,
		Out:         out,
		data:        make(map[string]*benchData),
	}
}

// benchData is one dataset with its engines (cached per α).
type benchData struct {
	g       *rdf.Graph
	qg      *gen.QueryGen
	base    *core.Engine // α = 3, reach enabled
	byAlpha map[int]*core.Engine
}

// Dataset names.
const (
	DBpediaLike = "DBpedia-like"
	YagoLike    = "Yago-like"
)

// Data returns (building on first use) the named dataset.
func (s *Suite) Data(name string) *benchData {
	if d, ok := s.data[name]; ok {
		return d
	}
	var cfg gen.Config
	switch name {
	case DBpediaLike:
		cfg = gen.DBpediaConfig(s.Scale, s.Seed)
	case YagoLike:
		cfg = gen.YagoConfig(s.Scale, s.Seed+1)
	default:
		panic("bench: unknown dataset " + name)
	}
	g := gen.Generate(cfg)
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	if s.Metrics != nil {
		// Registration is idempotent, so both datasets share one set of
		// instruments; WithAlpha clones inherit them from the base engine.
		e.EnableMetrics(s.Metrics)
	}
	d := &benchData{
		g:       g,
		qg:      gen.NewQueryGen(g, rdf.Outgoing, s.Seed+17),
		base:    e,
		byAlpha: map[int]*core.Engine{3: e},
	}
	s.data[name] = d
	return d
}

func (d *benchData) engine(alphaRadius int) *core.Engine {
	if e, ok := d.byAlpha[alphaRadius]; ok {
		return e
	}
	e := d.base.WithAlpha(alphaRadius)
	d.byAlpha[alphaRadius] = e
	return e
}

// queryClass selects a workload generator.
type queryClass int

const (
	classO queryClass = iota
	classSDLL
	classLDLL
)

// workload generates n queries of m keywords in the given class.
func (d *benchData) workload(class queryClass, n, m, k int) []core.Query {
	qs := make([]core.Query, n)
	for i := range qs {
		var loc geo.Point
		var kws []string
		switch class {
		case classSDLL:
			loc, kws = d.qg.SDLL(m)
		case classLDLL:
			loc, kws = d.qg.LDLL(m)
		default:
			loc, kws = d.qg.Original(m)
		}
		qs[i] = core.Query{Loc: loc, Keywords: kws, K: k}
	}
	return qs
}

// withK rewrites the K of a workload (the paper reuses one workload per
// setting while varying k).
func withK(qs []core.Query, k int) []core.Query {
	out := make([]core.Query, len(qs))
	for i, q := range qs {
		q.K = k
		out[i] = q
	}
	return out
}

// measured aggregates a workload run.
type measured struct {
	Semantic   time.Duration // mean per query
	Other      time.Duration // mean per query
	TQSP       float64       // mean per query
	NodeAccess float64
	Results    []core.Result // concatenated results (for figure 8)
}

func (m measured) total() time.Duration { return m.Semantic + m.Other }

// runWorkload executes every query and averages the statistics.
func (s *Suite) runWorkload(e *core.Engine, a core.Algorithm, qs []core.Query, opts core.Options) (measured, error) {
	if (a == core.AlgoBSP || a == core.AlgoTA) && opts.Deadline == 0 {
		opts.Deadline = s.BSPDeadline
	}
	var agg core.Stats
	var out measured
	for _, q := range qs {
		res, stats, err := e.Search(a, q, opts)
		if err != nil {
			return out, fmt.Errorf("%v: %w", a, err)
		}
		agg.Add(stats)
		out.Results = append(out.Results, res...)
	}
	n := len(qs)
	if n == 0 {
		return out, nil
	}
	out.Semantic = agg.SemanticTime / time.Duration(n)
	out.Other = agg.OtherTime / time.Duration(n)
	out.TQSP = float64(agg.TQSPComputations) / float64(n)
	out.NodeAccess = float64(agg.RTreeNodeAccesses) / float64(n)
	return out, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}
