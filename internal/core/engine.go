package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"ksp/internal/alpha"
	"ksp/internal/faultinject"
	"ksp/internal/invindex"
	"ksp/internal/rdf"
	"ksp/internal/reach"
	"ksp/internal/rtree"
)

// MaxKeywords bounds |q.ψ|; keyword coverage is tracked in a 64-bit mask.
const MaxKeywords = 64

// Engine evaluates kSP queries over one dataset. All fields are read-only
// after construction, so an Engine is safe for concurrent queries.
type Engine struct {
	G    *rdf.Graph
	Tree *rtree.RTree
	Doc  *invindex.MemIndex
	// Reach enables Pruning Rule 1 (required by SPP and used by SP).
	Reach *reach.KeywordIndex
	// Alpha enables the α-radius bounds (required by SP).
	Alpha *alpha.Index
	Dir   rdf.Direction
	Rank  Ranking

	// pools recycles per-query scratch (Mq.ψ bitsets, BFS state)
	// across queries. A pointer so WithAlpha clones share it (the graph, and hence every
	// scratch size, is identical).
	pools *enginePools
	// metrics is the optional cumulative instrument bundle
	// (EnableMetrics); nil keeps query evaluation free of any
	// observability cost. Shared by WithAlpha clones.
	metrics *engineMetrics
}

// enginePools recycles allocation-heavy per-query state.
type enginePools struct {
	mq      sync.Pool // *denseMQ
	scratch sync.Pool // *bfsScratch
	// termSeen and vertSeen recycle the small dedup sets of prepare
	// (term-ID space) and the TA loop (vertex-ID space). Two pools
	// because the two ID spaces differ in size and seenSet reallocates
	// on a size change.
	termSeen sync.Pool // *seenSet
	vertSeen sync.Pool // *seenSet
	// frontier recycles SP's queue and leaf-run arena.
	frontier sync.Pool // *spFrontier
}

// getFrontier returns an empty SP frontier.
func (p *enginePools) getFrontier() *spFrontier {
	f, _ := p.frontier.Get().(*spFrontier)
	if f == nil {
		f = new(spFrontier)
	}
	return f
}

// putFrontier takes f back, emptied.
func (p *enginePools) putFrontier(f *spFrontier) {
	f.queue, f.arena = f.queue[:0], f.arena[:0]
	p.frontier.Put(f)
}

func (p *enginePools) getMQ(n int) *denseMQ {
	d, _ := p.mq.Get().(*denseMQ)
	if d == nil {
		d = &denseMQ{}
	}
	d.reset(n)
	return d
}

func (p *enginePools) putMQ(d *denseMQ) {
	if d != nil {
		d.reset(0)
		p.mq.Put(d)
	}
}

func (p *enginePools) getScratch(n int) *bfsScratch {
	s, _ := p.scratch.Get().(*bfsScratch)
	if s == nil || len(s.visited) != n {
		s = &bfsScratch{visited: make([]uint32, n)}
	}
	return s
}

func (p *enginePools) putScratch(s *bfsScratch) {
	if s != nil {
		p.scratch.Put(s)
	}
}

func getSeen(pool *sync.Pool, n int) *seenSet {
	s, _ := pool.Get().(*seenSet)
	if s == nil {
		s = &seenSet{}
	}
	s.reset(n)
	return s
}

func putSeen(pool *sync.Pool, s *seenSet) {
	if s != nil {
		pool.Put(s)
	}
}

// seenSet is an epoch-stamped membership set over a dense uint32 ID
// space — the pooled replacement for the per-query map[uint32]bool
// dedup sets: recycling skips both the map allocation and any clearing
// (the epoch bump invalidates every stale stamp at once).
type seenSet struct {
	stamp []uint32
	epoch uint32
}

func (s *seenSet) reset(n int) {
	if len(s.stamp) != n {
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // stamp wrap: clear once every 2^32 queries
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

func (s *seenSet) has(id uint32) bool { return s.stamp[id] == s.epoch }
func (s *seenSet) add(id uint32)      { s.stamp[id] = s.epoch }

// denseMQ is the map Mq.ψ (Table 2) held as one bitset over vertex IDs
// per query keyword: bit v of bits[i] is set iff v's document holds
// keyword i. A keyword the document index keeps as a bitset is borrowed
// in place; any other has its postings set into one of the pooled scratch
// bitsets, zeroed first. Either way keyword i's bitset holds exactly the
// vertices of its posting list, so every mask reads as a scatter of the
// lists would have made it.
type denseMQ struct {
	bits    [MaxKeywords][]uint64
	m       int
	nw      int // words per bitset: ⌈|V|/64⌉
	scratch [MaxKeywords][]uint64
}

// reset readies d for a query over n vertices. It drops the bitsets the
// last query borrowed, so a pooled denseMQ pins no index memory, and keeps
// its own scratch.
func (d *denseMQ) reset(n int) {
	clear(d.bits[:d.m])
	d.m, d.nw = 0, (n+63)/64
}

// borrow makes set, a document-index bitset, keyword m's.
func (d *denseMQ) borrow(set []uint64) {
	d.bits[d.m] = set
	d.m++
}

// scatter makes the vertices of pl keyword m's, in scratch.
func (d *denseMQ) scatter(pl []invindex.Posting) {
	s := d.scratch[d.m]
	if len(s) != d.nw {
		s = make([]uint64, d.nw)
		d.scratch[d.m] = s
	} else {
		clear(s)
	}
	for _, p := range pl {
		s[p.ID>>6] |= 1 << (p.ID & 63)
	}
	d.borrow(s)
}

// match returns the keywords among open that v's document holds.
func (d *denseMQ) match(v uint32, open uint64) uint64 {
	w, sh := v>>6, v&63
	var mask uint64
	for o := open; o != 0; o &= o - 1 {
		i := bits.TrailingZeros64(o)
		mask |= (d.bits[i][w] >> sh & 1) << i
	}
	return mask
}

// get returns v's keyword mask (zero when v matches no query keyword).
func (d *denseMQ) get(v uint32) uint64 { return d.match(v, 1<<d.m-1) }

// NewEngine assembles an engine with the mandatory structures of
// Section 3: the STR-bulk-loaded R-tree over the place vertices and the
// document inverted index. Reachability and α-radius indexes are added
// with EnableReach / EnableAlpha.
func NewEngine(g *rdf.Graph, dir rdf.Direction) *Engine {
	return NewEngineOver(g, rtree.OfPlaces(g.Places(), g.Loc), dir)
}

// NewEngineOver is NewEngine with the R-tree over g's places given, as a
// snapshot serves it.
func NewEngineOver(g *rdf.Graph, tree *rtree.RTree, dir rdf.Direction) *Engine {
	return &Engine{
		G:     g,
		Tree:  tree,
		Doc:   invindex.FromGraph(g),
		Dir:   dir,
		Rank:  ProductRanking{},
		pools: &enginePools{},
	}
}

// EnableReach builds the keyword reachability index (Section 4.1).
func (e *Engine) EnableReach() {
	e.Reach = reach.NewKeywordIndex(e.G, e.Dir)
}

// EnableAlpha builds the α-radius word neighbourhoods (Section 5). It
// panics, as alpha.Build does, on a radius alpha.CheckRadius rejects;
// callers holding a user's value check it first (ksp.Config does).
func (e *Engine) EnableAlpha(alphaRadius int) {
	e.Alpha = alpha.Build(e.G, e.Tree, alphaRadius, e.Dir)
}

// SetAlpha installs a prebuilt α-radius index, e.g. one restored from a
// snapshot. The index's node postings must have been built against this
// engine's R-tree, so that node IDs line up; a snapshot holds the tree
// the index was built over, and internal/store checks that the node file
// ranges over exactly its nodes.
func (e *Engine) SetAlpha(ix *alpha.Index) { e.Alpha = ix }

// WithAlpha returns a shallow copy of the engine using a freshly built
// α-radius index with a different radius. All other (immutable) indexes
// are shared — this is how the α-sweep experiment (Figure 6) avoids
// rebuilding the R-tree, document index and reachability labels per α.
// It panics where EnableAlpha does.
func (e *Engine) WithAlpha(alphaRadius int) *Engine {
	clone := *e
	clone.Alpha = alpha.Build(e.G, e.Tree, alphaRadius, e.Dir)
	return &clone
}

// prepQuery is a resolved query: deduped keyword term IDs ordered by
// ascending document frequency (the paper prioritizes infrequent keywords
// in Rule 1), those frequencies, and the map Mq.ψ from vertices to keyword
// masks, one bitset per keyword. Posting lists are only borrowed while
// prepare sets them into Mq.ψ. Read-only once prepare returns; the
// engine recycles mq via releasePrep.
type prepQuery struct {
	loc   Query
	terms []uint32
	df    []int // df[i] is the document frequency of terms[i]
	mq    *denseMQ
	full  uint64
	// answerable is false when some keyword is absent from every document;
	// no qualified semantic place can exist then.
	answerable bool
	// qv caches the α-radius query view for terms, loaded at most once
	// per query (SP's stream and the screen share it). Guarded by
	// qvLoaded, not a mutex: a query runs on one goroutine.
	qv       *alpha.QueryView
	qvErr    error
	qvLoaded bool
}

// queryView lazily loads the α-radius view for pq's keyword set,
// returning (nil, nil) when the α index is absent.
func (pq *prepQuery) queryView(e *Engine) (*alpha.QueryView, error) {
	if !pq.qvLoaded {
		pq.qvLoaded = true
		if e.Alpha != nil {
			pq.qv, pq.qvErr = e.Alpha.LoadQuery(pq.terms)
		}
	}
	return pq.qv, pq.qvErr
}

// releasePrep returns a prepared query's pooled scratch to the engine.
// The prepQuery must not be used afterwards. Deferred at the algorithm
// function scope, after the candidate stream is closed, so the α query
// view can go back to its pool.
func (e *Engine) releasePrep(pq *prepQuery) {
	if pq == nil {
		return
	}
	if pq.mq != nil {
		e.pools.putMQ(pq.mq)
		pq.mq = nil
	}
	if pq.qv != nil {
		pq.qv.Release()
		pq.qv = nil
	}
}

var errTooManyKeywords = fmt.Errorf("core: more than %d query keywords", MaxKeywords)

// prepare resolves keywords and builds Mq.ψ (Table 2 of the paper).
// Keywords pass through the graph's text analyzer, so they normalize
// exactly like the indexed documents (lower-casing, optional stopword
// removal and stemming); a keyword producing several tokens contributes
// each as a query keyword, and a keyword consisting only of stopwords is
// vacuously covered.
func (e *Engine) prepare(q Query) (*prepQuery, error) {
	faultinject.Fire(PointPrepare)
	pq := &prepQuery{loc: q, answerable: true}
	seen := getSeen(&e.pools.termSeen, e.G.Vocab.Len())
	for _, kw := range q.Keywords {
		for _, tok := range e.G.Analyze(kw) {
			id, ok := e.G.Vocab.Lookup(tok)
			if !ok {
				pq.answerable = false
				continue
			}
			if seen.has(id) {
				continue
			}
			seen.add(id)
			pq.terms = append(pq.terms, id)
		}
	}
	putSeen(&e.pools.termSeen, seen)
	if len(pq.terms) > MaxKeywords {
		return nil, errTooManyKeywords
	}
	if !pq.answerable {
		return pq, nil
	}
	// Each keyword is read in place, never copied: as the document index's
	// own bitset where it holds one, else as its posting list, set into a
	// scratch bitset before prepare returns.
	var sets [MaxKeywords][]uint64
	var lists [MaxKeywords][]invindex.Posting
	pq.df = make([]int, len(pq.terms))
	for i, t := range pq.terms {
		lists[i], sets[i], pq.df[i] = e.Doc.Term(t)
		if pq.df[i] == 0 {
			pq.answerable = false
		}
	}
	if !pq.answerable {
		return pq, nil
	}
	// Infrequent keywords first: cheapest Rule 1 rejections come first.
	order := make([]int, len(pq.terms))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(pq.df[a], pq.df[b]) })
	terms := make([]uint32, len(order))
	df := make([]int, len(order))
	for i, o := range order {
		terms[i], df[i] = pq.terms[o], pq.df[o]
	}
	pq.terms, pq.df = terms, df

	pq.full = (uint64(1) << uint(len(pq.terms))) - 1
	pq.mq = e.pools.getMQ(e.G.NumVertices())
	for _, o := range order {
		if sets[o] != nil {
			pq.mq.borrow(sets[o])
		} else {
			pq.mq.scatter(lists[o])
		}
	}
	return pq, nil
}

// numKeywords returns m = |q.ψ| after dedup/resolution.
func (pq *prepQuery) numKeywords() int { return len(pq.terms) }

// topK maintains the result queue Hk: a worst-first heap capped at k.
// With a shared Bound (Options.Bound) it is one tile's view of a joint
// Hk: theta is capped by the bound's θ and add publishes into it.
type topK struct {
	k      int
	items  resultHeap
	shared *Bound
}

// resultHeap is a worst-first binary heap of Result with hand-rolled
// sift methods, for the same reason as spHeap: container/heap boxes
// every pushed element into an interface{}, charging one allocation per
// candidate admitted to Hk. The sift logic mirrors container/heap's
// algorithm exactly (same comparisons, same swaps), so eviction order
// is bit-identical to the old code.
type resultHeap []Result

func (h resultHeap) less(i, j int) bool { // worst (to evict) at the top
	if h[i].Score != h[j].Score {
		return h[i].Score > h[j].Score
	}
	return h[i].Place > h[j].Place
}

func (h *resultHeap) push(r Result) {
	*h = append(*h, r)
	h.up(len(*h) - 1)
}

func (h *resultHeap) pop() Result {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	h.down(0, n)
	r := s[n]
	s[n] = Result{} // clear the Tree pointer so the GC can reclaim it
	*h = s[:n]
	return r
}

func (h resultHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h resultHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func newTopK(k int, shared *Bound) *topK { return &topK{k: k, shared: shared} }

// theta returns the ranking score of the kth candidate, +Inf while fewer
// than k candidates exist. Under a shared bound it is additionally
// capped just above the bound's θ: every caller compares strictly
// (score < theta keeps, bound >= theta stops), so a place scoring
// exactly the shared θ is still kept and only places that k offered
// places strictly beat are dropped.
func (t *topK) theta() float64 {
	th := math.Inf(1)
	if len(t.items) >= t.k {
		th = t.items[0].Score
	}
	return t.shared.limit(th)
}

// add inserts r, evicting the worst candidate beyond k.
func (t *topK) add(r Result) {
	t.items.push(r)
	if len(t.items) > t.k {
		t.items.pop()
	}
	if t.shared != nil {
		t.shared.Offer(r.Place, r.Score)
	}
}

// sorted returns the candidates by ascending score (ties by place ID).
// The comparison is a total order over distinct places, so the unstable
// sort is deterministic.
func (t *topK) sorted() []Result {
	out := append([]Result(nil), t.items...)
	slices.SortFunc(out, func(a, b Result) int {
		if a.Score != b.Score {
			return cmp.Compare(a.Score, b.Score)
		}
		return cmp.Compare(a.Place, b.Place)
	})
	return out
}

// deadlineFor converts Options.Deadline to an absolute time (zero = none).
func deadlineFor(opts Options) time.Time {
	if opts.Deadline <= 0 {
		return time.Time{}
	}
	return time.Now().Add(opts.Deadline)
}

func expired(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// limiter bundles the two early-exit conditions of a query: the
// Options.Deadline budget and Options.Cancel (e.g. an HTTP client
// disconnecting). Loops poll it periodically, exactly like the previous
// deadline-only checks.
type limiter struct {
	deadline time.Time
	cancel   <-chan struct{}
}

func limiterFor(opts Options) limiter {
	return limiter{deadline: deadlineFor(opts), cancel: opts.Cancel}
}

// stop reports whether evaluation must halt, recording the reason.
func (l limiter) stop(stats *Stats) bool {
	if l.cancel != nil {
		select {
		case <-l.cancel:
			stats.Cancelled = true
			return true
		default:
		}
	}
	if expired(l.deadline) {
		stats.TimedOut = true
		return true
	}
	return false
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
