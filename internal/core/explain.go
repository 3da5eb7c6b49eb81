package core

import (
	"fmt"

	"ksp/internal/rdf"
)

// EXPLAIN: a structured plan + execution profile for one query,
// assembled from configuration and the Stats the run already collected
// — no span capture involved, so it is cheap enough to attach to any
// response (?explain=1, kspquery -explain). The plan says what the
// engine decided to do (algorithm, pruning rules in force, window
// policy, Rule-1 keyword order); the profile says what that decision
// cost (per-rule pruning counts, cache traffic, window work), mirroring
// the paper's per-phase/per-rule accounting.

// ExplainKeyword is one resolved query keyword in Rule-1 evaluation
// order (ascending document frequency — infrequent keywords are
// checked first because they reject candidates cheapest).
type ExplainKeyword struct {
	Term string `json:"term"`
	// DocFrequency is the keyword's posting-list length — the ordering
	// key of Rule 1.
	DocFrequency int `json:"docFrequency"`
}

// ExplainPlan describes the evaluation strategy chosen for a query.
type ExplainPlan struct {
	Algo string `json:"algo"`
	K    int    `json:"k"`
	// Keywords lists the resolved, deduplicated query keywords in the
	// order the engine evaluates them. Empty when resolution failed.
	Keywords []ExplainKeyword `json:"keywords,omitempty"`
	// Answerable is false when some keyword matches no document — no
	// qualified semantic place can exist and the query short-circuits.
	Answerable bool `json:"answerable"`
	// WindowPolicy is the candidate-window decision: "classic" (W=1
	// legacy loop), "fixed" (explicit W), or "adaptive".
	WindowPolicy string `json:"windowPolicy"`
	// Window is the explicit window size under the "fixed" policy.
	Window  int     `json:"window,omitempty"`
	MaxDist float64 `json:"maxDist,omitempty"`
	// Rule1–Rule4 report which pruning rules are in force for this plan
	// (index present, not disabled, and used by the chosen algorithm).
	Rule1 bool `json:"rule1"`
	Rule2 bool `json:"rule2"`
	Rule3 bool `json:"rule3"`
	Rule4 bool `json:"rule4"`
	// AlphaRadius is the α of the word-neighbourhood index (0 = absent).
	AlphaRadius int `json:"alphaRadius,omitempty"`
	// Reachability reports the Rule-1 keyword reachability index.
	Reachability bool `json:"reachability"`
	// LoosenessCache reports the cross-query cache.
	LoosenessCache bool   `json:"loosenessCache"`
	Ranking        string `json:"ranking"`
	Direction      string `json:"direction"`
}

// ExplainProfile is the execution profile of one finished query — the
// Stats counters regrouped for reading.
type ExplainProfile struct {
	DurationMicros int64 `json:"durationMicros"`
	SemanticMicros int64 `json:"semanticMicros"`
	OtherMicros    int64 `json:"otherMicros"`

	PlacesRetrieved   int64 `json:"placesRetrieved"`
	TQSPComputations  int64 `json:"tqspComputations"`
	BFSVertexVisits   int64 `json:"bfsVertexVisits"`
	RTreeNodeAccesses int64 `json:"rtreeNodeAccesses"`
	ReachQueries      int64 `json:"reachQueries"`

	// Per-rule pruning counts (the paper's Rules 1–4).
	PrunedRule1 int64 `json:"prunedRule1"`
	PrunedRule2 int64 `json:"prunedRule2"`
	PrunedRule3 int64 `json:"prunedRule3"`
	PrunedRule4 int64 `json:"prunedRule4"`

	CacheHits      int64 `json:"cacheHits"`
	CacheBoundHits int64 `json:"cacheBoundHits"`
	CacheMisses    int64 `json:"cacheMisses"`

	WindowsFilled        int64 `json:"windowsFilled"`
	WindowCandidates     int64 `json:"windowCandidates"`
	WindowScreenKilled   int64 `json:"windowScreenKilled"`
	WindowDeferredKilled int64 `json:"windowDeferredKilled"`

	Results    int     `json:"results"`
	Partial    bool    `json:"partial,omitempty"`
	TimedOut   bool    `json:"timedOut,omitempty"`
	Cancelled  bool    `json:"cancelled,omitempty"`
	ScoreBound float64 `json:"scoreBound,omitempty"`
}

// ExplainShard is one shard's dispatch record inside a sharded
// gather's explain: where it sat in the MinDist dispatch order, why it
// was (or was not) called, and how the call went. Filled by the serving
// layer; the engine itself never sees shards.
type ExplainShard struct {
	Name string `json:"name"`
	// Order is the shard's position in the coordinator's ascending
	// MinDist dispatch order (0 = nearest, dispatched first).
	Order   int     `json:"order"`
	MinDist float64 `json:"minDist"`
	// State is ok|partial|error|open|pruned|skipped — pruned means the
	// θ established by nearer shards proved this shard irrelevant,
	// skipped means it lies entirely beyond MaxDist.
	State string `json:"state"`
	// Breaker is the circuit-breaker state observed at dispatch.
	Breaker  string `json:"breaker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Hedged   bool   `json:"hedged,omitempty"`
	Micros   int64  `json:"micros,omitempty"`
	Error    string `json:"error,omitempty"`
	// GatedMicros is how long the dispatcher held the shard back so
	// nearer tiles could establish θ first; ThetaAtStart is the gather's
	// shared θ when the shard was dispatched or pruned (omitted while no
	// threshold existed).
	GatedMicros  int64   `json:"gatedMicros,omitempty"`
	ThetaAtStart float64 `json:"thetaAtStart,omitempty"`
}

// ExplainReport is the full EXPLAIN document for one query.
type ExplainReport struct {
	Plan    ExplainPlan    `json:"plan"`
	Profile ExplainProfile `json:"profile"`
	Shards  []ExplainShard `json:"shards,omitempty"`
}

// Explain assembles the report for a query that already ran with
// algorithm a and the given options and produced stats; results is the
// returned result count. Keyword resolution re-runs the (cheap) prepare
// step to recover the Rule-1 order.
func (e *Engine) Explain(a Algorithm, q Query, opts Options, stats *Stats, results int) *ExplainReport {
	rep := &ExplainReport{}
	rep.Plan = e.explainPlan(a, q, opts)
	if stats != nil {
		rep.Profile = buildProfile(stats, results)
	}
	return rep
}

func (e *Engine) explainPlan(a Algorithm, q Query, opts Options) ExplainPlan {
	p := ExplainPlan{
		Algo:           a.String(),
		K:              q.K,
		Answerable:     true,
		MaxDist:        opts.MaxDist,
		Reachability:   e.Reach != nil,
		LoosenessCache: e.loose != nil,
		Ranking:        fmt.Sprintf("%T", e.Rank),
	}
	switch w, adaptive := resolveWindow(opts); {
	case adaptive:
		p.WindowPolicy = "adaptive"
	case w == 1:
		p.WindowPolicy = "classic"
	default:
		p.WindowPolicy = "fixed"
		p.Window = w
	}
	if e.Alpha != nil {
		p.AlphaRadius = e.Alpha.Alpha
	}
	// Which pruning rules the plan can exercise, decided by the same
	// algorithms row evaluation runs from. The profile's counters show
	// actual hits.
	if a >= 0 && a < numAlgorithms {
		alg := &algorithms[a]
		p.Rule1, p.Rule2 = alg.rules(e, opts)
		p.Rule3 = alg.source == alphaQueue && e.Alpha != nil
		p.Rule4 = p.Rule3
	}
	switch e.Dir {
	case rdf.Outgoing:
		p.Direction = "outgoing"
	case rdf.Undirected:
		p.Direction = "undirected"
	default:
		p.Direction = fmt.Sprintf("Direction(%d)", int(e.Dir))
	}
	p.Keywords, p.Answerable = e.explainKeywords(q)
	return p
}

// explainKeywords resolves q's keywords exactly like evaluation does
// (dedup, analyzer, ascending-DF Rule-1 order). Failures — including an
// injected prepare fault in chaos builds — degrade to an empty list.
func (e *Engine) explainKeywords(q Query) (kws []ExplainKeyword, answerable bool) {
	defer func() {
		if recover() != nil {
			kws, answerable = nil, false
		}
	}()
	pq, err := e.prepare(q)
	if pq != nil {
		defer e.releasePrep(pq)
	}
	if err != nil || pq == nil {
		return nil, false
	}
	kws = make([]ExplainKeyword, len(pq.terms))
	for i, t := range pq.terms {
		df := 0
		if i < len(pq.df) {
			df = pq.df[i]
		}
		kws[i] = ExplainKeyword{Term: e.G.Vocab.Term(t), DocFrequency: df}
	}
	return kws, pq.answerable
}

func buildProfile(s *Stats, results int) ExplainProfile {
	return ExplainProfile{
		DurationMicros:       s.TotalTime().Microseconds(),
		SemanticMicros:       s.SemanticTime.Microseconds(),
		OtherMicros:          s.OtherTime.Microseconds(),
		PlacesRetrieved:      s.PlacesRetrieved,
		TQSPComputations:     s.TQSPComputations,
		BFSVertexVisits:      s.BFSVertexVisits,
		RTreeNodeAccesses:    s.RTreeNodeAccesses,
		ReachQueries:         s.ReachQueries,
		PrunedRule1:          s.PrunedUnqualified,
		PrunedRule2:          s.PrunedDynamicBound,
		PrunedRule3:          s.PrunedAlphaPlaces,
		PrunedRule4:          s.PrunedAlphaNodes,
		CacheHits:            s.CacheHits,
		CacheBoundHits:       s.CacheBoundHits,
		CacheMisses:          s.CacheMisses,
		WindowsFilled:        s.WindowsFilled,
		WindowCandidates:     s.WindowCandidates,
		WindowScreenKilled:   s.WindowScreenKilled,
		WindowDeferredKilled: s.WindowDeferredKilled,
		Results:              results,
		Partial:              s.Partial,
		TimedOut:             s.TimedOut,
		Cancelled:            s.Cancelled,
		ScoreBound:           s.ScoreBound,
	}
}
