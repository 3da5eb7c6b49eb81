package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ksp"
	"ksp/internal/alpha"
	"ksp/internal/geo"
	"ksp/internal/invindex"
	"ksp/internal/nt"
	"ksp/internal/rdf"
	"ksp/internal/reach"
	"ksp/internal/rtree"
	"ksp/internal/shard"
	"ksp/internal/store"
)

// span is one timed call into a layer, recorded by the driver around the
// call (the program itself is not edited). parent is the index of the
// span one layer further out for the same query, -1 at the outermost.
type span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Parent  int    `json:"parent"`
	QueryID int    `json:"query_id"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how timed runs stay free of it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, parent, query int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name:    name,
		StartUS: start.Sub(t.epoch).Microseconds(),
		EndUS:   end.Sub(t.epoch).Microseconds(),
		Parent:  parent,
		QueryID: query,
	})
	return len(t.spans) - 1
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(t.spans)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// peeled holds what the single-client replays at successive depths
// measured: per query and depth, the fastest replay in ns — a burst of
// host noise or a GC cycle that hits one replay does not reach the table
// — plus the work counts of the final D3 pass.
type peeled struct {
	n       int
	d0      []int64 // http.Client.Get over loopback
	d0trace []int64 // the same with span recording on
	d1      []int64 // Server.ServeHTTP on a ResponseRecorder
	d2      []int64 // Coordinator.Search (sharded only)
	tileSum []int64 // Σ over tiles of Local.Search, replayed in turn
	tileMax []int64 // the slowest of those tiles
	d3      []int64 // Dataset.SearchWith
	// semantic and other are Stats.SemanticTime / OtherTime of the D3
	// replay that d3 kept.
	semantic, other []int64
	bytes           int64 // response body bytes, each query once
	stats           ksp.Stats
	mallocs         uint64
	alloc           uint64
	// popped[i] is how many places query i took from the R-tree — the
	// larger of Stats.PlacesRetrieved and Stats.WindowCandidates, since
	// a windowed query pops every candidate but counts as retrieved only
	// those it evaluates. It sizes the kernel replays.
	popped []int64
}

// keepMin records ns as query i's time at a depth if it is the first or
// the faster replay, and reports whether it did.
func keepMin(dst []int64, i int, ns int64) bool {
	if dst[i] == 0 || ns < dst[i] {
		dst[i] = ns
		return true
	}
	return false
}

func sum(v []int64) (s int64) {
	for _, x := range v {
		s += x
	}
	return s
}

// medianDiff is the median over queries of a[i] − b[i]: the typical cost
// of the layer that separates two depths.
func medianDiff(a, b []int64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = float64(a[i] - b[i])
	}
	return median(d)
}

// peel replays the first w.peel pool queries, one client, at successive
// depths, so that a layer's self time is the difference between two
// depths. The design is a Latin square: in pass r, query i is replayed at
// depth (first[i]+r) mod D, so every pass mixes all depths — host noise that
// lasts a second weighs on every depth alike instead of on a difference —
// and no query runs twice in a row, which would flatter the second
// replay with warm caches. Two rounds of D passes replay every query at
// every depth twice; the faster replay is kept. A last pass at D3 alone
// takes the work counts and the allocation figures.
func peel(s *served, in *inputs, tr *tracer) (*peeled, error) {
	n := min(in.w.peel, len(in.pool))
	col := func() []int64 { return make([]int64, n) }
	p := &peeled{
		n: n, d0: col(), d0trace: col(), d1: col(), d2: col(), tileSum: col(), tileMax: col(),
		d3: col(), semantic: col(), other: col(), popped: col(),
	}
	// Span of each query's latest replay at D0, D1, D2: the parent of its
	// next replay one layer further in.
	outer := [3][]int{make([]int, n), make([]int, n), make([]int, n)}
	for _, ids := range outer {
		for i := range ids {
			ids[i] = -1
		}
	}
	var buf []byte

	d0 := func(t *tracer, dst []int64) func(int) error {
		return func(i int) error {
			t0 := time.Now()
			status, body, err := s.get(in.pool[i].path, buf)
			t1 := time.Now()
			buf = body
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("peel D0 query %d: status %d: %v", i, status, err)
			}
			keepMin(dst, i, t1.Sub(t0).Nanoseconds())
			if id := t.add("client.get", t0, t1, -1, i); id >= 0 {
				outer[0][i] = id
			}
			return nil
		}
	}
	d1 := func(i int) error {
		req := httptest.NewRequest(http.MethodGet, in.pool[i].path, nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.srv.ServeHTTP(rec, req)
		t1 := time.Now()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("peel D1 query %d: status %d", i, rec.Code)
		}
		if p.d1[i] == 0 {
			p.bytes += int64(rec.Body.Len())
		}
		keepMin(p.d1, i, t1.Sub(t0).Nanoseconds())
		outer[1][i] = tr.add("server.serve", t0, t1, outer[0][i], i)
		return nil
	}
	d2 := func(i int) error {
		ctx, cancel := context.WithTimeout(context.Background(), srvTimeout)
		defer cancel()
		q := in.pool[i].q
		req := shard.Request{X: q.Loc.X, Y: q.Loc.Y, Keywords: q.Keywords, K: q.K, Algo: in.w.algo}
		t0 := time.Now()
		_, err := s.coord.Search(ctx, req)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("peel D2 query %d: %w", i, err)
		}
		keepMin(p.d2, i, t1.Sub(t0).Nanoseconds())
		outer[2][i] = tr.add("shard.gather", t0, t1, outer[1][i], i)
		var total, slowest int64
		for _, tile := range s.tiles {
			t0 := time.Now()
			_, err := tile.Search(ctx, req)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("peel D2 query %d on %s: %w", i, tile.Name(), err)
			}
			d := t1.Sub(t0).Nanoseconds()
			total += d
			slowest = max(slowest, d)
			tr.add("shard.tile", t0, t1, outer[2][i], i)
		}
		if keepMin(p.tileSum, i, total) {
			p.tileMax[i] = slowest
		}
		return nil
	}
	parent := outer[1]
	if s.coord != nil {
		parent = outer[2]
	}
	d3 := func(i int) (*ksp.Stats, error) {
		t0 := time.Now()
		_, st, err := s.ds.SearchWith(in.w.algo, in.pool[i].q, ksp.Options{Deadline: srvTimeout})
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("peel D3 query %d: %w", i, err)
		}
		if keepMin(p.d3, i, t1.Sub(t0).Nanoseconds()) {
			p.semantic[i] = st.SemanticTime.Nanoseconds()
			p.other[i] = st.OtherTime.Nanoseconds()
		}
		id := tr.add("core.search", t0, t1, parent[i], i)
		tr.add("core.semantic", t0, t0.Add(st.SemanticTime), id, i)
		return st, nil
	}

	depths := []func(int) error{d0(nil, p.d0), d0(tr, p.d0trace), d1}
	if s.coord != nil {
		depths = append(depths, d2)
	}
	depths = append(depths, func(i int) error { _, err := d3(i); return err })
	// A fixed random starting depth per query, so that what ran just
	// before a replay (a hot HTTP connection or a direct call) varies too.
	first := shuffled(n, 1)
	for r := 0; r < 2*len(depths); r++ {
		for i := 0; i < n; i++ {
			if err := depths[(first[i]+r)%len(depths)](i); err != nil {
				return nil, err
			}
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		st, err := d3(i)
		if err != nil {
			return nil, err
		}
		p.stats.Add(st)
		p.popped[i] = max(st.PlacesRetrieved, st.WindowCandidates)
	}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.alloc = after.TotalAlloc - before.TotalAlloc
	return p, nil
}

// kernels are the standalone layer structures the D4 replays run on,
// with the time each took to build or open.
type kernels struct {
	snap  *store.Snapshot
	g     *rdf.Graph
	tree  *rtree.RTree
	reach *reach.KeywordIndex
	alpha *alpha.Index

	snapshotBytes                              int64
	saveMS, openMS                             float64
	ntParseMS, bulkMS, invMS, reachMS, alphaMS float64
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// buildKernels obtains the graph and the α index from a snapshot of the
// served dataset (opened the way the workload opens snapshots) and
// builds the other layer structures directly, timing each constructor
// the workload's own open path pays for.
func buildKernels(s *served, in *inputs) (*kernels, error) {
	k := &kernels{}
	// Workloads that open a snapshot wrote and timed theirs in prepare;
	// the others save the served dataset now, the same way.
	path := in.snapPath
	k.saveMS = in.saveMS
	if path == "" {
		path = filepath.Join(in.dir, "trace.snap")
		t0 := time.Now()
		if err := s.ds.Save(path); err != nil {
			return nil, err
		}
		k.saveMS = ms(time.Since(t0))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	k.snapshotBytes = fi.Size()

	t0 := time.Now()
	if in.w.open == openMmap {
		k.snap, err = store.OpenDisk(path, true)
	} else {
		k.snap, err = store.LoadFile(path)
	}
	if err != nil {
		return nil, err
	}
	k.openMS = ms(time.Since(t0))
	k.g = k.snap.Graph
	k.alpha = k.snap.AlphaIndex()

	places := k.g.Places()
	items := make([]rtree.Item, len(places))
	for i, p := range places {
		items[i] = rtree.Item{ID: p, Loc: k.g.Loc(p)}
	}
	t0 = time.Now()
	k.tree = rtree.Bulk(items, rtree.DefaultMaxEntries)
	k.bulkMS = ms(time.Since(t0))
	t0 = time.Now()
	invindex.FromGraph(k.g)
	k.invMS = ms(time.Since(t0))
	t0 = time.Now()
	k.reach = reach.NewKeywordIndex(k.g, rdf.Outgoing)
	k.reachMS = ms(time.Since(t0))

	switch in.w.open {
	case openGraph, openShard4, openNT:
		// These open paths build the α index; the snapshot paths load it.
		t0 = time.Now()
		alpha.Build(k.g, k.tree, ksp.DefaultConfig().AlphaRadius, rdf.Outgoing)
		k.alphaMS = ms(time.Since(t0))
	}
	if in.w.open == openNT {
		f, err := os.Open(in.ntPath)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		_, err = nt.Load(f, rdf.NewBuilder())
		k.ntParseMS = ms(time.Since(t0))
		//ksplint:ignore droppederr -- file opened read-only; Close cannot lose data
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return k, nil
}

func (k *kernels) close() error { return k.snap.Close() }

// kernelTimes are the D4 estimates: mean cost of one call into each
// kernel, measured by replaying the call pattern of the peeled queries
// on the standalone structures.
type kernelTimes struct {
	nextNS, probeNS, boundNS float64
	loadQueryUS, postingsUS  float64
	postingLenMean           float64
	// perQueryNS is the kernels' estimated share of one query's engine
	// time: nextNS×popped + probeNS×probes + loadQuery + boundNS×popped
	// (the α terms only when the algorithm uses the α index).
	perQueryNS float64
}

// maxReplayPlaces caps how many nearest places per query the reach and
// α replays touch.
const maxReplayPlaces = 4096

// replayKernels is depth D4: GETNEXT on the R-tree as often as the
// engine popped places, reachability probes and α place bounds over
// those nearest places × the query's terms, the α view load, and the α
// place-posting reads on the workload's storage mode.
func replayKernels(k *kernels, in *inputs, p *peeled) (kernelTimes, error) {
	var kt kernelTimes
	var nextNS, probeNS, boundNS, loadNS, postNS int64
	var nexts, probes, bounds, lists, postings int64
	var dst []invindex.Posting
	near := make([]uint32, 0, maxReplayPlaces)
	for i := 0; i < p.n; i++ {
		q := in.pool[i].q
		var terms []uint32
		for _, kw := range q.Keywords {
			for _, tok := range k.g.Analyze(kw) {
				if t, ok := k.g.Vocab.Lookup(tok); ok {
					terms = append(terms, t)
				}
			}
		}
		near = near[:0]
		t0 := time.Now()
		br := k.tree.NewBrowser(geo.Point{X: q.Loc.X, Y: q.Loc.Y})
		for j := int64(0); j < p.popped[i]; j++ {
			it, _, ok := br.Next()
			if !ok {
				break
			}
			nexts++
			if len(near) < maxReplayPlaces {
				near = append(near, it.ID)
			}
		}
		nextNS += time.Since(t0).Nanoseconds()

		t0 = time.Now()
		for _, v := range near {
			for _, t := range terms {
				k.reach.CanReach(v, t)
			}
		}
		probeNS += time.Since(t0).Nanoseconds()
		probes += int64(len(near) * len(terms))

		if k.alpha == nil {
			continue
		}
		t0 = time.Now()
		qv, err := k.alpha.LoadQuery(terms)
		if err != nil {
			return kt, err
		}
		loadNS += time.Since(t0).Nanoseconds()
		t0 = time.Now()
		for _, v := range near {
			qv.PlaceBound(v)
		}
		boundNS += time.Since(t0).Nanoseconds()
		bounds += int64(len(near))
		qv.Release()

		t0 = time.Now()
		for _, t := range terms {
			if dst, err = k.alpha.PlaceIdx.Postings(t, dst[:0]); err != nil {
				return kt, err
			}
			postings += int64(len(dst))
			lists++
		}
		postNS += time.Since(t0).Nanoseconds()
	}
	div := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	n := int64(p.n)
	kt.nextNS = div(nextNS, nexts)
	kt.probeNS = div(probeNS, probes)
	kt.boundNS = div(boundNS, bounds)
	kt.loadQueryUS = div(loadNS, n) / 1e3
	kt.postingsUS = div(postNS, n) / 1e3
	kt.postingLenMean = div(postings, lists)
	popped := div(sum(p.popped), n)
	kt.perQueryNS = kt.nextNS*popped + kt.probeNS*div(p.stats.ReachQueries, n)
	if in.w.algo == ksp.AlgoSP {
		kt.perQueryNS += kt.loadQueryUS*1e3 + kt.boundNS*popped
	}
	return kt, nil
}
