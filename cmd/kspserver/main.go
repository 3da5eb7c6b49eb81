// Command kspserver serves kSP queries over HTTP.
//
// Usage:
//
//	kspserver -data data.nt -addr :8080
//	kspserver -snapshot data.snap -addr :8080
//	kspserver -data data.nt -shards 4                 # in-process scatter-gather
//	kspserver -shard-addrs http://10.0.0.2:8080,http://10.0.0.3:8080
//
// -shards N partitions the loaded dataset into N spatial tiles and
// serves /search by fault-tolerant scatter-gather across them;
// -shard-addrs instead federates remote kspserver peers over their
// /search wire format (the local dataset then only serves /keyword,
// /nearest and /describe). See internal/shard for the resilience
// policy (retries, hedging, circuit breakers).
//
// Endpoints: /search, /describe, /stats, /metrics, /debug/queries,
// /debug/slow, /healthz (see internal/server). Example:
//
//	curl 'localhost:8080/search?x=43.5&y=4.7&kw=ancient,roman&k=5&trees=1'
//	curl 'localhost:8080/metrics'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on the side listener only (-pprof)
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ksp"
	"ksp/internal/server"
	"ksp/internal/shard"
)

func main() {
	var (
		data     = flag.String("data", "", "N-Triples dataset to load")
		snapshot = flag.String("snapshot", "", "snapshot produced by Dataset.Save (faster startup)")
		mmap     = flag.Bool("mmap", false, "serve the graph and its indexes straight from the snapshot file via a read-only memory mapping (requires -snapshot; falls back to reading the file onto the heap where mmap is unavailable)")
		addr     = flag.String("addr", ":8080", "listen address")
		alphaR   = flag.Int("alpha", 3, "α radius, at most 255 (N-Triples loading only)")
		maxK     = flag.Int("maxk", 100, "largest k a request may ask for")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-query evaluation cap")
		pprof    = flag.String("pprof", "", "side listen address for net/http/pprof (empty = disabled), e.g. localhost:6060")

		shards      = flag.Int("shards", 0, "partition the dataset into N spatial tiles and serve /search by scatter-gather (0 = single engine)")
		shardAddrs  = flag.String("shard-addrs", "", "comma-separated base URLs of remote kspserver shards to federate (mutually exclusive with -shards)")
		shardWait   = flag.Duration("shard-timeout", 2*time.Second, "per-attempt shard call deadline")
		shardTries  = flag.Int("shard-attempts", 3, "shard call attempts per query, first included")
		shardHedge  = flag.Duration("shard-hedge-after", 250*time.Millisecond, "hedge a second shard attempt after this long (negative = no hedging)")
		shardFanout = flag.Int("shard-fanout", 0, "cap on concurrent shard calls per query, dispatched by ascending MinDist (0 = no cap)")

		admitWidth = flag.Int("admit-width", 0, "concurrent searches admitted (0 = 2×GOMAXPROCS, negative = unlimited)")
		admitQueue = flag.Int("admit-queue", 0, "requests that may queue for admission before shedding 429 (0 = 16, negative = no queue)")
		queueWait  = flag.Duration("queue-wait", time.Second, "longest a request queues for admission before shedding 503")
		drain      = flag.Duration("drain", 15*time.Second, "in-flight request drain budget on SIGTERM/SIGINT")

		slowThreshold = flag.Duration("slow-threshold", 500*time.Millisecond, "retain and log queries slower than this at /debug/slow (0 = every query, negative = disable the slow-query log)")
		slowRing      = flag.Int("slow-ring", 64, "slow queries retained at /debug/slow")

		logLevel  = flag.String("log-level", "info", "log level: debug | info | warn | error (debug includes per-request access logs)")
		logFormat = flag.String("log-format", "text", "log format: text | json")
	)
	flag.Parse()

	logger, err := buildLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kspserver:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	cfg := ksp.DefaultConfig()
	cfg.AlphaRadius = *alphaR

	var ds *ksp.Dataset
	start := time.Now()
	switch {
	case *mmap && *snapshot == "":
		fatal(logger, "-mmap requires -snapshot")
	case *snapshot != "":
		cfg.Mmap = *mmap
		ds, err = ksp.LoadSnapshot(*snapshot, cfg)
	case *data != "":
		ds, err = ksp.OpenFile(*data, cfg)
	default:
		fatal(logger, "need -data or -snapshot")
	}
	if err != nil {
		fatal(logger, err.Error())
	}
	st := ds.Stats()
	logger.Info("dataset loaded",
		"vertices", st.Vertices, "edges", st.Edges, "places", st.Places,
		"mmap", st.MemoryMapped,
		"loadTime", time.Since(start).Round(time.Millisecond).String())

	if *pprof != "" {
		// The profiling endpoints stay off the public listener: pprof's
		// init registers on http.DefaultServeMux, which only this side
		// server exposes.
		go func() {
			logger.Info("pprof listening", "addr", *pprof)
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				logger.Error("pprof listener failed", "error", err.Error())
			}
		}()
	}

	s := server.New(ds)
	s.Logger = logger
	s.MaxK = *maxK
	s.Timeout = *timeout
	s.AdmitCapacity = *admitWidth
	s.AdmitQueue = *admitQueue
	s.QueueTimeout = *queueWait
	if *slowThreshold >= 0 {
		s.EnableSlowLog(*slowRing, *slowThreshold)
	}

	coord, err := buildShards(ds, *shards, *shardAddrs, shard.Config{
		AttemptTimeout: *shardWait,
		MaxAttempts:    *shardTries,
		HedgeAfter:     *shardHedge,
		FanOut:         *shardFanout,
	})
	if err != nil {
		fatal(logger, err.Error())
	}
	if coord != nil {
		s.AttachShards(coord)
		up, total := coord.Healthy()
		logger.Info("scatter-gather enabled", "shardsUp", up, "shardsTotal", total)
	}

	srv := &http.Server{Addr: *addr, Handler: s}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()

	// SIGTERM/SIGINT drains gracefully: readiness flips off first so
	// load balancers stop routing here, then in-flight requests get the
	// drain budget to finish before the listener dies.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fatal(logger, err.Error())
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "budget", drain.String())
		s.SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(logger, "drain incomplete: "+err.Error())
		}
		if coord != nil {
			// After the drain: no in-flight gather needs the health checker
			// or the breakers anymore.
			coord.Close()
		}
		if err := ds.Close(); err != nil {
			logger.Error("dataset close failed", "error", err.Error())
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, err.Error())
		}
	}
}

// buildShards constructs the scatter-gather coordinator from the shard
// flags: -shards N tiles the loaded dataset in-process, -shard-addrs
// federates remote peers. nil means single-engine serving.
func buildShards(ds *ksp.Dataset, n int, addrs string, cfg shard.Config) (*shard.Coordinator, error) {
	if n > 0 && addrs != "" {
		return nil, errors.New("-shards and -shard-addrs are mutually exclusive")
	}
	var members []shard.Shard
	switch {
	case addrs != "":
		for _, a := range strings.Split(addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				members = append(members, shard.NewRemote(a, a, nil))
			}
		}
		if len(members) == 0 {
			return nil, errors.New("-shard-addrs names no shards")
		}
	case n > 0:
		tiles, err := ds.PartitionSpatial(n)
		if err != nil {
			return nil, err
		}
		for i, tile := range tiles {
			members = append(members, shard.NewLocal(fmt.Sprintf("tile%d", i), tile))
		}
	default:
		return nil, nil
	}
	return shard.New(members, cfg)
}

// buildLogger constructs the process logger from the -log-level and
// -log-format flags.
func buildLogger(w *os.File, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug, info, warn, or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
}

func fatal(logger *slog.Logger, msg string) {
	logger.Error(msg)
	os.Exit(1)
}
