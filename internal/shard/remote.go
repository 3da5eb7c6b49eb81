package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"ksp"
	"ksp/internal/obs"
)

// Remote is a shard served by another kspserver process, spoken to over
// the /search wire format. Its MBR is fetched from the peer's /stats
// bounds section (lazily, and refreshed by health probes), so a freshly
// started coordinator treats an unreachable peer as unbounded — never
// distance-pruned, conservatively floored at distance zero on failure.
type Remote struct {
	name   string
	base   string
	client *http.Client

	mu        sync.Mutex
	bounds    ksp.Rect
	hasBounds bool
}

// NewRemote wraps the kspserver at baseURL (e.g. "http://10.0.0.3:8080")
// as a shard. client may be nil for http.DefaultClient; per-call
// deadlines come from the coordinator's contexts either way.
func NewRemote(name, baseURL string, client *http.Client) *Remote {
	if client == nil {
		client = http.DefaultClient
	}
	return &Remote{name: name, base: strings.TrimRight(baseURL, "/"), client: client}
}

// Name implements Shard.
func (r *Remote) Name() string { return r.name }

// Bounds implements Shard.
func (r *Remote) Bounds() (ksp.Rect, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bounds, r.hasBounds
}

// wireResponse mirrors the subset of internal/server's SearchResponse
// the coordinator consumes. The shape is covered by the equivalence
// test, which drives a Remote against a live internal/server.
type wireResponse struct {
	Results []Result `json:"results"`
	Partial bool     `json:"partial"`
	Bound   float64  `json:"scoreLowerBound"`
	Stats   struct {
		TQSPComputations  int64 `json:"tqspComputations"`
		RTreeNodeAccesses int64 `json:"rtreeNodeAccesses"`
		TimedOut          bool  `json:"timedOut"`
		Cancelled         bool  `json:"cancelled"`
	} `json:"stats"`
	// Trace is the peer's local span subtree, embedded when the request
	// asked for tracing (?trace=1 on the shard wire).
	Trace *ksp.SpanJSON `json:"trace"`
}

// wireError mirrors internal/server's apiError.
type wireError struct {
	Error string `json:"error"`
}

// Search implements Shard over GET /search.
func (r *Remote) Search(ctx context.Context, req Request) (*Response, error) {
	q := url.Values{}
	q.Set("x", strconv.FormatFloat(req.X, 'g', -1, 64))
	q.Set("y", strconv.FormatFloat(req.Y, 'g', -1, 64))
	q.Set("kw", strings.Join(req.Keywords, ","))
	q.Set("k", strconv.Itoa(req.K))
	q.Set("algo", req.Algo.String())
	if req.MaxDist > 0 {
		q.Set("maxdist", strconv.FormatFloat(req.MaxDist, 'g', -1, 64))
	}
	if req.CollectTrees {
		q.Set("trees", "1")
	}
	if req.Trace {
		q.Set("trace", "1")
	}
	body, status, err := r.get(ctx, "/search?"+q.Encode())
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		var we wireError
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			msg = we.Error
		}
		err := fmt.Errorf("shard %s: /search status %d: %s", r.name, status, msg)
		if status >= 400 && status < 500 && status != http.StatusTooManyRequests {
			// The request itself is bad (or too big for the peer);
			// retrying cannot fix it.
			return nil, &permanentError{err: err}
		}
		return nil, err
	}
	var wr wireResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		return nil, fmt.Errorf("shard %s: bad /search payload: %w", r.name, err)
	}
	resp := &Response{Results: wr.Results, Partial: wr.Partial, Bound: wr.Bound, Trace: wr.Trace}
	resp.Stats.TQSPComputations = wr.Stats.TQSPComputations
	resp.Stats.RTreeNodeAccesses = wr.Stats.RTreeNodeAccesses
	resp.Stats.TimedOut = wr.Stats.TimedOut
	resp.Stats.Cancelled = wr.Stats.Cancelled
	resp.Stats.Partial = wr.Partial
	resp.Stats.ScoreBound = wr.Bound
	return resp, nil
}

// Ping implements Shard over GET /readyz, refreshing the cached MBR
// from /stats when it is still unknown.
func (r *Remote) Ping(ctx context.Context) error {
	body, status, err := r.get(ctx, "/readyz")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("shard %s: /readyz status %d: %s", r.name, status, strings.TrimSpace(string(body)))
	}
	r.mu.Lock()
	known := r.hasBounds
	r.mu.Unlock()
	if !known {
		r.fetchBounds(ctx)
	}
	return nil
}

// wireBounds mirrors the /stats bounds section.
type wireBounds struct {
	Bounds *struct {
		MinX float64 `json:"minX"`
		MinY float64 `json:"minY"`
		MaxX float64 `json:"maxX"`
		MaxY float64 `json:"maxY"`
	} `json:"bounds"`
}

// fetchBounds caches the peer's place MBR; failures leave the shard
// unbounded (correct, just less prunable).
func (r *Remote) fetchBounds(ctx context.Context) {
	body, status, err := r.get(ctx, "/stats")
	if err != nil || status != http.StatusOK {
		return
	}
	var wb wireBounds
	if json.Unmarshal(body, &wb) != nil || wb.Bounds == nil {
		return
	}
	r.mu.Lock()
	r.bounds = ksp.Rect{MinX: wb.Bounds.MinX, MinY: wb.Bounds.MinY, MaxX: wb.Bounds.MaxX, MaxY: wb.Bounds.MaxY}
	r.hasBounds = true
	r.mu.Unlock()
}

// get performs one GET under ctx and drains the body (bounded, so a
// misbehaving peer cannot balloon memory). The coordinator's request ID
// and trace context ride along as headers: X-Request-ID lets shard-side
// log lines correlate with the coordinator's, and a traceparent header
// carries the trace ID so the peer joins the gather's trace instead of
// minting its own.
func (r *Remote) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return nil, 0, &permanentError{err: err}
	}
	if rid := obs.RequestIDFromContext(ctx); rid != "" {
		req.Header.Set(obs.RequestIDHeader, rid)
	}
	if tr := obs.TraceFromContext(ctx); tr != nil {
		if tp := obs.FormatTraceparent(tr.ID(), obs.NewSpanID(), true); tp != "" {
			req.Header.Set(obs.TraceparentHeader, tp)
		}
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	//ksplint:ignore droppederr -- response fully read (or failed); Close releases the connection only
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	return body, resp.StatusCode, nil
}
