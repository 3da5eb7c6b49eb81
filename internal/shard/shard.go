// Package shard implements fault-tolerant scatter-gather evaluation of
// kSP queries over spatial partitions of a dataset.
//
// A Shard is one partition's query endpoint: it answers a kSP request
// over its own candidate universe and reports health. Two
// implementations exist — Local wraps an in-process *ksp.Dataset
// (typically one tile of Dataset.PartitionSpatial), Remote speaks the
// internal/server /search wire format over HTTP — and the Coordinator
// makes them interchangeable: it runs a gather under one shared top-k
// threshold (the nearest tile gets a head start to establish it, Local
// tiles evaluate under it, shards whose MBR MinDist cannot beat it are
// pruned unseen), wraps every call in
// per-attempt deadlines, bounded jittered retries, a hedged second
// attempt for stragglers and a per-shard circuit breaker, and merges
// the per-shard top-ks so that multi-shard answers are bit-identical to
// a single-shard run when every shard responds (DESIGN.md §14).
//
// When a shard fails, the gather degrades instead of failing: the
// merged prefix stays Lemma-1 sound, with a global score floor composed
// from the failed shards' MinDist bounds and the partial shards'
// reported bounds, and per-shard error detail in Gather.Shards.
package shard

import (
	"context"
	"errors"

	"ksp"
	"ksp/internal/faultinject"
)

// Fault-injection points wrapping the shard RPC path (see
// internal/faultinject). A Panic fault at PointCall or PointPing
// surfaces as a shard RPC error (not a process panic); a Stall fault
// injects call latency (exercising attempt timeouts and hedging); a
// Panic fault at PointTruncate truncates an otherwise-successful
// response to a sound partial prefix.
var (
	// PointCall fires at the start of every shard Search attempt.
	PointCall = faultinject.Register("shard.call")
	// PointPing fires at the start of every health-checker probe.
	PointPing = faultinject.Register("shard.ping")
	// PointTruncate fires on every successful shard response, before
	// merging.
	PointTruncate = faultinject.Register("shard.response.truncate")
)

// Shard is one partition of the dataset: a bound-ordered candidate
// universe with TQSP evaluation and a health probe. Implementations
// must be safe for concurrent calls (the coordinator hedges).
type Shard interface {
	// Name identifies the shard in statuses, metrics and logs.
	Name() string
	// Bounds returns the MBR of the shard's places; ok is false when the
	// MBR is unknown (empty shard, or a remote whose bounds were not yet
	// fetched). A shard without bounds is never distance-pruned and
	// contributes a zero-distance floor when it fails.
	Bounds() (ksp.Rect, bool)
	// Search evaluates req on the shard's candidate universe. The
	// context carries the per-attempt deadline and cancellation; a
	// partial evaluation (deadline inside the shard) returns a Response
	// with Partial set rather than an error.
	Search(ctx context.Context, req Request) (*Response, error)
	// Ping is a cheap health probe: nil means the shard answers queries.
	Ping(ctx context.Context) error
}

// Request is one kSP query as shards receive it — the already-validated
// subset of the /search parameters that affect evaluation.
type Request struct {
	X, Y     float64
	Keywords []string
	K        int
	Algo     ksp.Algorithm
	// Window tunes per-shard evaluation exactly like the single-engine
	// ?window= parameter.
	Window int
	// MaxDist restricts results to places within that distance (0 = no
	// cap); the coordinator also uses it to skip unreachable shards.
	MaxDist float64
	// CollectTrees materializes result TQSPs.
	CollectTrees bool
	// Trace asks the shard to capture its local span tree and return it
	// in Response.Trace; TraceID is the gather's trace identifier, which
	// the shard joins so both sides' trees correlate. The coordinator
	// sets both from the caller's context — callers never do.
	Trace   bool
	TraceID string
	// Bound is the gather's shared top-k threshold (ksp.Options.Bound).
	// The coordinator creates one per Search and sets it — callers never
	// do. It exists in-process only: Local evaluates under it, Remote
	// cannot send it and its peer evaluates under a private θ.
	Bound *ksp.Bound
}

// Result is one semantic place in a shard response, in wire form: the
// place vertex ID (shards over the same dataset build agree on vertex
// IDs, and (score, place) is the engine's deterministic tie-break), the
// URI and coordinates so the coordinator needs no local graph, and the
// scores.
type Result struct {
	Place     uint32  `json:"place"`
	URI       string  `json:"uri"`
	Score     float64 `json:"score"`
	Looseness float64 `json:"looseness"`
	Dist      float64 `json:"distance"`
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	// Exact is set by the coordinator's global merge, not by shards.
	Exact bool       `json:"exact"`
	Tree  []TreeNode `json:"tree,omitempty"`
}

// TreeNode is one vertex of a materialized TQSP, mirroring the /search
// wire form.
type TreeNode struct {
	URI      string `json:"uri"`
	Parent   string `json:"parent"`
	Depth    int    `json:"depth"`
	Keywords int    `json:"matchedKeywords"`
}

// Response is one shard's answer: its local top-k by ascending
// (score, place). A partial response (the shard stopped early) carries
// the Lemma-1 floor Bound: every place of this shard not in Results
// scores at least Bound.
type Response struct {
	Results []Result
	Partial bool
	Bound   float64
	// Stats carries the shard's evaluation cost counters (fully
	// populated by Local, reconstructed from the wire stats by Remote).
	Stats ksp.Stats
	// Trace is the shard's local span subtree, present only when
	// Request.Trace asked for it. Its time offsets are relative to the
	// *shard's* trace epoch; the coordinator rebases them when grafting
	// the subtree under its own calling span.
	Trace *ksp.SpanJSON
}

// errInjected marks a fault-injection panic converted into a shard RPC
// error, and permanentError marks errors that retrying cannot fix
// (client errors: the request itself is bad).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// permanent reports whether err is not worth retrying.
func permanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// firePoint fires a fault-injection point, converting an injected panic
// into an error — the shard RPC layer degrades on faults instead of
// propagating panics.
func firePoint(point string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			inj, ok := r.(*faultinject.Injected)
			if !ok {
				panic(r)
			}
			err = inj
		}
	}()
	faultinject.Fire(point)
	return nil
}

// maybeTruncate applies the PointTruncate fault to a successful
// response: the tail half of the results is dropped and the response
// becomes a sound partial — the first dropped score bounds every
// dropped (and, results being sorted, every unseen) place of the shard.
func maybeTruncate(resp *Response) {
	if firePoint(PointTruncate) == nil {
		return
	}
	n := len(resp.Results) / 2
	if n == len(resp.Results) {
		return
	}
	bound := resp.Results[n].Score
	if resp.Partial && resp.Bound < bound {
		bound = resp.Bound
	}
	resp.Results = resp.Results[:n]
	resp.Partial = true
	resp.Bound = bound
}
