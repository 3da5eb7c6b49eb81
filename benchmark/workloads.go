package main

import "ksp"

// clients is the number of closed-loop client goroutines, each on its
// own keep-alive connection. It is a constant (the reference host has
// two cores), never derived from the machine the run happens on, so two
// hosts measure the same traffic.
const clients = 2

// openKind names the path a workload takes from "inputs in hand" to a
// dataset that can answer queries. Each is one of the ways kspserver
// itself opens data.
type openKind int

const (
	// openGraph indexes an in-memory graph (ksp.NewDatasetFromGraph):
	// R-tree bulk load, inverted index, reachability labels, α-WN build.
	openGraph openKind = iota
	// openSnapshot decodes a snapshot fully into memory (ksp.LoadSnapshot,
	// the kspserver -snapshot path).
	openSnapshot
	// openNT parses an N-Triples file and indexes it (ksp.OpenFile, the
	// kspserver -data path).
	openNT
	// openShard4 indexes the graph, cuts it into four spatial tiles and
	// puts a coordinator in front (the kspserver -shards 4 path).
	openShard4
	// openMmap opens a snapshot disk-resident through a memory mapping
	// (ksp.LoadSnapshotDisk with Config.Mmap, the kspserver -mmap path).
	openMmap
)

// workload is one fixed traffic mix. Nothing here depends on the seed,
// which only draws the order a run walks the pool in. Pools are sized so
// that a ten-second run walks each at least three times.
type workload struct {
	name string
	why  string
	// yago selects the Yago-like generator shape; otherwise DBpedia-like.
	// scale is the generated graph's vertex count.
	yago  bool
	scale int
	algo  ksp.Algorithm
	// k results and m keywords per query; pool distinct queries.
	k, m, pool int
	open       openKind
	// setupReps is how often the open path is timed (closing in between);
	// setup_s is the median. The shorter the path, the more repetitions.
	setupReps int
	// peel is how many pool queries each single-client peeling pass of
	// the traced run replays, sized so one pass takes about a second.
	peel int
	// openLoop adds the open-loop probe to the traced run.
	openLoop bool
}

// Vertex counts of the two generated datasets. The Yago-like graph is
// sized so that its slowest workload (four shards on two cores) still
// completes about two thousand operations in a ten-second run, which
// the p99 needs; the DBpedia-like graph has few places per vertex and
// keeps the larger size.
const (
	yagoScale = 12000
	dbpScale  = 30000
)

var workloads = []workload{
	{
		name: "yago_sp", yago: true, scale: yagoScale, algo: ksp.AlgoSP, k: 5, m: 5, pool: 2000,
		open: openGraph, setupReps: 5, peel: 200, openLoop: true,
		why: "default serving path on sparse-text data: SP, dominated by TQSP BFS; engine-core and adjacency-layout changes show here",
	},
	{
		name: "yago_spp", yago: true, scale: yagoScale, algo: ksp.AlgoSPP, k: 5, m: 5, pool: 1000,
		open: openSnapshot, setupReps: 9, peel: 80,
		why: "same data without the alpha index: Rule-1 reachability probes, window screening and R-tree browsing outweigh BFS",
	},
	{
		name: "dbp_sp_light", yago: false, scale: dbpScale, algo: ksp.AlgoSP, k: 1, m: 2, pool: 2000,
		open: openNT, setupReps: 3, peel: 2000,
		why: "sub-millisecond queries on rich-text data: HTTP parse, admission, metrics, JSON encode and loopback are a third of latency",
	},
	{
		name: "yago_sp_shard4", yago: true, scale: yagoScale, algo: ksp.AlgoSP, k: 5, m: 5, pool: 500,
		open: openShard4, setupReps: 3, peel: 60,
		why: "yago_sp through four spatial tiles and the coordinator: dispatch, theta-prune, merge and per-tile CPU are on the blocking path",
	},
	{
		name: "yago_sp_mmap", yago: true, scale: yagoScale, algo: ksp.AlgoSP, k: 5, m: 5, pool: 2000,
		open: openMmap, setupReps: 15, peel: 200,
		why: "yago_sp served disk-resident from a memory-mapped snapshot: open time and heap are the point, latency should match yago_sp",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one reported metric. bound is the share of the
// parent's median by which a later change may worsen an end-to-end
// metric before it counts as a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a client of the served system sees. BENCHMARK.json
// repeats this table; bench_test.go keeps the two equal.
var endToEnd = []metricDef{
	{"qps", "ops/s", "higher", 0.20},
	{"p50_ms", "ms", "lower", 0.15},
	{"p99_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.05},
}

// perLayer is the layer table of the traced run, in README order.
var perLayer = []metricDef{
	{name: "net.roundtrip_self_us", unit: "us/op", better: "lower"},
	{name: "server.self_us", unit: "us/op", better: "lower"},
	{name: "server.resp_bytes", unit: "B/op", better: "lower"},
	{name: "server.shed_ratio", unit: "ratio", better: "lower"},
	{name: "server.coalesced_ratio", unit: "ratio", better: "lower"},
	{name: "server.open_p50_ms", unit: "ms", better: "lower"},
	{name: "server.open_p99_ms", unit: "ms", better: "lower"},
	{name: "server.open_shed_ratio", unit: "ratio", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "shard.gather_us", unit: "us/op", better: "lower"},
	{name: "shard.tile_sum_us", unit: "us/op", better: "lower"},
	{name: "shard.tile_max_us", unit: "us/op", better: "lower"},
	{name: "shard.amplification", unit: "ratio", better: "lower"},
	{name: "shard.calls_per_query", unit: "count/op", better: "lower"},
	{name: "shard.skipped_ratio", unit: "ratio", better: "higher"},
	{name: "shard.retries", unit: "count", better: "lower"},
	{name: "shard.hedges", unit: "count", better: "lower"},
	{name: "shard.breaker_trips", unit: "count", better: "lower"},
	{name: "core.engine_us", unit: "us/op", better: "lower"},
	{name: "core.semantic_us", unit: "us/op", better: "lower"},
	{name: "core.other_us", unit: "us/op", better: "lower"},
	{name: "core.tqsp_per_query", unit: "count/op", better: "lower"},
	{name: "core.bfs_visits_per_query", unit: "count/op", better: "lower"},
	{name: "core.rule2_aborts_per_query", unit: "count/op", better: "higher"},
	{name: "core.bfs_ns_per_visit", unit: "ns", better: "lower"},
	{name: "core.window_candidates_per_query", unit: "count/op", better: "lower"},
	{name: "core.window_kill_ratio", unit: "ratio", better: "higher"},
	{name: "core.allocs_per_query", unit: "count/op", better: "lower"},
	{name: "core.alloc_kb_per_query", unit: "KiB/op", better: "lower"},
	{name: "core.unattributed_share", unit: "ratio", better: "lower"},
	{name: "rtree.places_per_query", unit: "count/op", better: "lower"},
	{name: "rtree.node_accesses_per_query", unit: "count/op", better: "lower"},
	{name: "rtree.next_ns", unit: "ns", better: "lower"},
	{name: "reach.probes_per_query", unit: "count/op", better: "lower"},
	{name: "reach.rule1_pruned_per_query", unit: "count/op", better: "higher"},
	{name: "reach.probe_ns", unit: "ns", better: "lower"},
	{name: "alpha.pruned_places_per_query", unit: "count/op", better: "higher"},
	{name: "alpha.pruned_nodes_per_query", unit: "count/op", better: "higher"},
	{name: "alpha.loadquery_us", unit: "us/op", better: "lower"},
	{name: "alpha.bound_ns", unit: "ns", better: "lower"},
	{name: "invindex.postings_us", unit: "us/op", better: "lower"},
	{name: "invindex.posting_len_mean", unit: "count", better: "lower"},
	{name: "store.snapshot_mb", unit: "MiB", better: "lower"},
	{name: "store.save_ms", unit: "ms", better: "lower"},
	{name: "store.open_ms", unit: "ms", better: "lower"},
	{name: "store.rss_mb", unit: "MiB", better: "lower"},
	{name: "store.major_faults", unit: "count", better: "lower"},
	{name: "nt.parse_ms", unit: "ms", better: "lower"},
	{name: "rtree.bulk_ms", unit: "ms", better: "lower"},
	{name: "invindex.build_ms", unit: "ms", better: "lower"},
	{name: "reach.build_ms", unit: "ms", better: "lower"},
	{name: "alpha.build_ms", unit: "ms", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}
