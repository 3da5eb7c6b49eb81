package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ksp/internal/shard"
)

// params is one invocation's settings. scale and cycles exist for the
// smoke test; the command line always runs each workload at its own
// scale, by the clock.
type params struct {
	// seed draws the order of the run, the open-loop arrival schedule and
	// the queries checked against brute force; fixture selects the
	// generated dataset and query pool (see prepare).
	seed, fixture int64
	seconds       float64
	// scale, when > 0, overrides the workload's dataset size.
	scale int
	// endToEnd runs the timed phase, layers the traced phase.
	endToEnd, layers bool
	// cycles, when > 0, replaces the wall-clock run length by that many
	// pool cycles (and relaxes the ten-samples-beyond-p99 rule).
	cycles int
	// corrupt deliberately falsifies one expected answer, to prove a
	// wrong answer fails the run.
	corrupt bool
	out     *printer
}

// warmVerified is how many operations at the start of a warm-up have
// their answers verified one by one; the warm-up itself is one full pool
// cycle, the rest of it verified at the usual stride.
const warmVerified = 400

// result is one run's outcome in the shape the last output line has.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}

func (r *result) count(l loadResult) {
	r.Attempted += l.attempted
	r.Failed += l.failed
}

// runWorkload runs one workload: prepare, open (timed as setup_s), anchor
// the reference answers to brute force, then the timed run (after one
// warm-up pool cycle) and/or the traced run.
func runWorkload(w *workload, p params) (*result, error) {
	res := &result{Metrics: map[string]metricValue{}}
	logf := func(format string, args ...interface{}) { p.out.printf(format+"\n", args...) }

	scale := w.scale
	if p.scale > 0 {
		scale = p.scale
	}
	t0 := time.Now()
	in, err := prepare(w, scale, p.fixture)
	if in != nil {
		defer in.cleanup()
	}
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	logf("prepare: %d vertices, %d places, %d edges, %d queries in %.2f s",
		in.g.NumVertices(), len(in.g.Places()), in.g.NumEdges(), len(in.pool), time.Since(t0).Seconds())

	reps := w.setupReps
	if !p.endToEnd {
		reps = 1
	}
	var s *served
	setups := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("close between set-ups: %w", err)
			}
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		if s, err = open(in); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if err := s.close(); err != nil {
			logf("close: %v", err)
		}
	}()
	logf("set-up: %d time(s), seconds %v", reps, setups)

	if err := in.checkOracle(s.ds, p.seed); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	order := shuffled(len(in.pool), p.seed+10)
	if p.corrupt {
		first := order[0] // the warm-up verifies it
		if err := in.expect(s.ds, []int{first}); err != nil {
			return nil, err
		}
		in.expected[first] = append([]hit{{uri: "corrupted", score: -1}}, in.expected[first]...)
	}

	if p.endToEnd {
		switch w.open {
		case openSnapshot, openNT, openMmap:
			in.g = nil // the open path serves from its own copy
		}
		warm := closedLoop(s, in, order, len(order), 0, warmVerified, nil)
		res.count(warm)
		if warm.failed > 0 {
			logf("warm-up: %d of %d failed, first: %s", warm.failed, warm.attempted, warm.firstFail)
		}
		run := closedLoop(s, in, order, p.cycles*len(order), time.Duration(p.seconds*float64(time.Second)), 0, nil)
		res.count(run)
		if run.failed > 0 {
			logf("timed run: %d of %d failed, first: %s", run.failed, run.attempted, run.firstFail)
		}
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)

		p50, _ := percentile(run.lat, 0.50)
		p99, beyond := percentile(run.lat, 0.99)
		if beyond < 10 && p.cycles == 0 {
			return nil, fmt.Errorf("only %d samples beyond p99 (%d in whole pool cycles): the run is too short to report it", beyond, len(run.lat))
		}
		res.set(endToEnd, "qps", float64(run.attempted-run.failed)/run.wall.Seconds())
		res.set(endToEnd, "p50_ms", p50)
		res.set(endToEnd, "p99_ms", p99)
		res.set(endToEnd, "setup_s", median(setups))
		res.set(endToEnd, "heap_mb", float64(m.HeapAlloc)/(1<<20))
		logf("timed run: %d ops in %.3f s, %d latency samples in whole pool cycles, %d beyond p99", run.attempted, run.wall.Seconds(), len(run.lat), beyond)
	}

	if p.layers {
		if err := traced(w, p, in, s, order, res, logf); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traced is the separate traced run: a closed-loop run with span
// recording for the load-dependent counters, the peeling passes, the
// kernel replays, and where the workload asks for it the open-loop probe.
func traced(w *workload, p params, in *inputs, s *served, order []int, res *result, logf func(string, ...interface{})) error {
	tr := newTracer()
	// Warm exactly the queries the peeling passes replay, all verified.
	first := make([]int, min(w.peel, len(in.pool)))
	for i := range first {
		first[i] = i
	}
	warm := closedLoop(s, in, first, len(first), 0, len(first), nil)
	res.count(warm)
	if warm.failed > 0 {
		logf("warm-up: %d of %d failed, first: %s", warm.failed, warm.attempted, warm.firstFail)
	}

	sharedBefore, err := sharedFlights(s)
	if err != nil {
		return err
	}
	var shardsBefore []shard.ShardInfo
	if s.coord != nil {
		shardsBefore = s.coord.Snapshot()
	}
	var memBefore, memAfter runtime.MemStats
	var ruBefore, ruAfter syscall.Rusage
	runtime.ReadMemStats(&memBefore)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ruBefore); err != nil {
		return err
	}
	half := time.Duration(p.seconds / 2 * float64(time.Second))
	run := closedLoop(s, in, order, p.cycles*len(order), half, 0, tr)
	res.count(run)
	if run.failed > 0 {
		logf("traced run: %d of %d failed, first: %s", run.failed, run.attempted, run.firstFail)
	}
	runtime.ReadMemStats(&memAfter)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ruAfter); err != nil {
		return err
	}
	sharedAfter, err := sharedFlights(s)
	if err != nil {
		return err
	}
	n := float64(run.attempted)
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	for _, d := range perLayer {
		set(d.name, 0) // a layer the workload bypasses reports 0
	}
	set("server.shed_ratio", float64(run.shed)/n)
	set("server.coalesced_ratio", float64(sharedAfter-sharedBefore)/n)
	set("runtime.gc_cycles", float64(memAfter.NumGC-memBefore.NumGC))
	set("runtime.gc_pause_ms", float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs)/1e6)
	set("store.major_faults", float64(ruAfter.Majflt-ruBefore.Majflt))
	rss, err := residentMiB()
	if err != nil {
		return err
	}
	set("store.rss_mb", rss)
	if s.coord != nil {
		var calls, retries, hedges, trips int64
		for i, after := range s.coord.Snapshot() {
			before := shardsBefore[i]
			calls += after.Calls - before.Calls
			retries += after.Retries - before.Retries
			hedges += after.Hedges - before.Hedges
			trips += after.BreakerTrips - before.BreakerTrips
		}
		set("shard.calls_per_query", float64(calls)/n)
		set("shard.skipped_ratio", 1-float64(calls)/(n*shardTiles))
		set("shard.retries", float64(retries))
		set("shard.hedges", float64(hedges))
		set("shard.breaker_trips", float64(trips))
	}

	pl, err := peel(s, in, tr)
	if err != nil {
		return err
	}
	k, err := buildKernels(s, in)
	if err != nil {
		return fmt.Errorf("kernels: %w", err)
	}
	defer func() {
		if err := k.close(); err != nil {
			logf("close kernel snapshot: %v", err)
		}
	}()
	kt, err := replayKernels(k, in, pl)
	if err != nil {
		return fmt.Errorf("kernel replay: %w", err)
	}

	pn := float64(pl.n)
	us := func(ns int64) float64 { return float64(ns) / pn / 1e3 }
	per := func(c int64) float64 { return float64(c) / pn }
	inner := pl.d3
	if s.coord != nil {
		inner = pl.d2
		set("shard.gather_us", us(sum(pl.d2)))
		set("shard.tile_sum_us", us(sum(pl.tileSum)))
		set("shard.tile_max_us", us(sum(pl.tileMax)))
		set("shard.amplification", float64(sum(pl.tileSum))/float64(sum(pl.d3)))
	}
	st := &pl.stats
	engineNS, semanticNS := sum(pl.d3), sum(pl.semantic)
	logf("peeling, mean us/op: D0 %.1f, D0 traced %.1f, D1 %.1f, D2 %.1f, D3 %.1f",
		us(sum(pl.d0)), us(sum(pl.d0trace)), us(sum(pl.d1)), us(sum(pl.d2)), us(engineNS))
	set("net.roundtrip_self_us", medianDiff(pl.d0, pl.d1)/1e3)
	set("server.self_us", medianDiff(pl.d1, inner)/1e3)
	set("server.resp_bytes", per(pl.bytes))
	set("trace.overhead_ratio", float64(sum(pl.d0trace))/float64(sum(pl.d0)))
	set("core.engine_us", us(engineNS))
	set("core.semantic_us", us(semanticNS))
	set("core.other_us", us(sum(pl.other)))
	set("core.tqsp_per_query", per(st.TQSPComputations))
	set("core.bfs_visits_per_query", per(st.BFSVertexVisits))
	set("core.rule2_aborts_per_query", per(st.PrunedDynamicBound))
	if st.BFSVertexVisits > 0 {
		set("core.bfs_ns_per_visit", float64(semanticNS)/float64(st.BFSVertexVisits))
	}
	set("core.window_candidates_per_query", per(st.WindowCandidates))
	if st.WindowCandidates > 0 {
		set("core.window_kill_ratio", float64(st.WindowScreenKilled+st.WindowDeferredKilled)/float64(st.WindowCandidates))
	}
	set("core.allocs_per_query", float64(pl.mallocs)/pn)
	set("core.alloc_kb_per_query", float64(pl.alloc)/pn/1024)
	set("core.unattributed_share", 1-(kt.perQueryNS*pn+float64(semanticNS))/float64(engineNS))
	set("rtree.places_per_query", per(st.PlacesRetrieved))
	set("rtree.node_accesses_per_query", per(st.RTreeNodeAccesses))
	set("rtree.next_ns", kt.nextNS)
	set("reach.probes_per_query", per(st.ReachQueries))
	set("reach.rule1_pruned_per_query", per(st.PrunedUnqualified))
	set("reach.probe_ns", kt.probeNS)
	set("alpha.pruned_places_per_query", per(st.PrunedAlphaPlaces))
	set("alpha.pruned_nodes_per_query", per(st.PrunedAlphaNodes))
	set("alpha.loadquery_us", kt.loadQueryUS)
	set("alpha.bound_ns", kt.boundNS)
	set("invindex.postings_us", kt.postingsUS)
	set("invindex.posting_len_mean", kt.postingLenMean)
	set("store.snapshot_mb", float64(k.snapshotBytes)/(1<<20))
	set("store.save_ms", k.saveMS)
	set("store.open_ms", k.openMS)
	set("nt.parse_ms", k.ntParseMS)
	set("rtree.bulk_ms", k.bulkMS)
	set("invindex.build_ms", k.invMS)
	set("reach.build_ms", k.reachMS)
	set("alpha.build_ms", k.alphaMS)

	if w.openLoop {
		ol := openLoop(s, in, order, half, p.seed+11)
		res.Attempted += ol.sent
		res.Failed += ol.failed
		if ol.sent > 0 {
			p50, _ := percentile(ol.lat, 0.50)
			p99, _ := percentile(ol.lat, 0.99)
			late, _ := percentile(ol.late, 0.99)
			set("server.open_p50_ms", p50)
			set("server.open_p99_ms", p99)
			set("server.open_shed_ratio", float64(ol.shed)/float64(ol.sent))
			set("loadgen.late_p99_ms", late)
		}
	}

	path := filepath.Join(os.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	logf("traced run: %d ops, %d peeled queries, %d spans written to %s", run.attempted, pl.n, len(tr.spans), path)
	return nil
}

// sharedFlights reads the server's coalesced-request counter from /stats.
func sharedFlights(s *served) (uint64, error) {
	status, body, err := s.get("/stats", nil)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("/stats: status %d: %v", status, err)
	}
	var st struct {
		Server struct {
			SharedFlights uint64 `json:"sharedFlights"`
		} `json:"server"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("/stats: %w", err)
	}
	return st.Server.SharedFlights, nil
}

// residentMiB reads this process's resident set size from /proc.
func residentMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}
