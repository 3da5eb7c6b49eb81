package main

import (
	"bufio"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ksp"
	"ksp/internal/gen"
	"ksp/internal/nt"
	"ksp/internal/rdf"
)

// query is one pool entry: the library form and the /search URL path
// that asks the same thing over HTTP. Coordinates are printed with the
// shortest representation that parses back to the same float64, so both
// forms evaluate the identical query.
type query struct {
	q    ksp.Query
	path string
}

// hit is one expected result: answers are compared by place URI and
// bit-equal score.
type hit struct {
	uri   string
	score float64
}

// inputs is everything a workload's prepare phase produces. All files
// live under dir, a fresh temporary directory removed when the run ends;
// nothing is cached across invocations.
type inputs struct {
	w   *workload
	dir string
	// g is the generated graph. It is released (set to nil) before the
	// timed run on open paths that do not serve from it, so heap_mb does
	// not count it.
	g    *rdf.Graph
	pool []query
	// expected[i] is the reference answer of pool[i] once known[i].
	expected [][]hit
	known    []bool
	snapPath string
	ntPath   string
	// saveMS is how long writing snapPath took (store.save_ms).
	saveMS float64
}

// prepare generates the workload's dataset and query pool and writes the
// artefacts its open path reads. Untimed.
//
// Dataset and pool are fixtures: they derive from the fixture number, not
// from the run's seed, so that every run of a workload measures the same
// multiset of queries on the same data and differs only in the order the
// seed draws. Drawing them from the seed was tried and dropped: between
// ten seeds it moved p50_ms by 14 % on yago_spp and p99_ms by 19 % on
// yago_sp_shard4 (drawing only the pool: 6 % and 11 %), more than any
// bound worth gating on. Workloads on the same shape share data, and a
// smaller pool is a prefix of a larger one.
func prepare(w *workload, scale int, fixture int64) (*inputs, error) {
	dir, err := os.MkdirTemp("", "kspbenchmark-")
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, dir: dir}
	if w.yago {
		in.g = gen.Generate(gen.YagoConfig(scale, fixture+1))
	} else {
		in.g = gen.Generate(gen.DBpediaConfig(scale, fixture))
	}
	in.pool = make([]query, w.pool)
	in.expected = make([][]hit, w.pool)
	in.known = make([]bool, w.pool)
	// The paper's §6.1 generator, one seeded instance per goroutine, each
	// filling its own stride of the pool.
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qg := gen.NewQueryGen(in.g, rdf.Outgoing, fixture+2+int64(c))
			for i := c; i < len(in.pool); i += clients {
				loc, kws := qg.Original(w.m)
				in.pool[i] = query{
					q:    ksp.Query{Loc: loc, Keywords: kws, K: w.k},
					path: searchPath(loc, kws, w.k, w.algo),
				}
			}
		}(c)
	}
	wg.Wait()
	switch w.open {
	case openSnapshot, openMmap:
		in.snapPath = filepath.Join(dir, "data.snap")
		ds, err := ksp.NewDatasetFromGraph(in.g, ksp.DefaultConfig())
		if err != nil {
			return in, err
		}
		t0 := time.Now()
		if err := ds.Save(in.snapPath); err != nil {
			return in, err
		}
		in.saveMS = ms(time.Since(t0))
	case openNT:
		in.ntPath = filepath.Join(dir, "data.nt")
		if err := writeNT(in.g, in.ntPath); err != nil {
			return in, err
		}
	}
	return in, nil
}

// cleanup removes the run's temporary directory.
func (in *inputs) cleanup() {
	//ksplint:ignore droppederr -- best-effort removal of our own temp dir at exit
	os.RemoveAll(in.dir)
}

func searchPath(loc ksp.Point, kws []string, k int, algo ksp.Algorithm) string {
	v := url.Values{}
	v.Set("x", strconv.FormatFloat(loc.X, 'g', -1, 64))
	v.Set("y", strconv.FormatFloat(loc.Y, 'g', -1, 64))
	v.Set("kw", strings.Join(kws, ","))
	v.Set("k", strconv.Itoa(k))
	v.Set("algo", algo.String())
	return "/search?" + v.Encode()
}

func writeNT(g *rdf.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := nt.WriteGraph(g, bw); err != nil {
		//ksplint:ignore droppederr -- error-path cleanup; the write error already wins
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		//ksplint:ignore droppederr -- error-path cleanup; the flush error already wins
		f.Close()
		return err
	}
	return f.Close()
}

// referenceAlgo is the algorithm expected answers are computed with: the
// other one, so a bug in the served algorithm cannot hide in its own
// reference.
func referenceAlgo(served ksp.Algorithm) ksp.Algorithm {
	if served == ksp.AlgoSPP {
		return ksp.AlgoSP
	}
	return ksp.AlgoSPP
}

// expect makes sure the expected answer of every pool query in idxs is
// known, computing the missing ones through the library, with the
// reference algorithm, on the (unsharded) dataset ds. A run only pays for
// the references it actually compares against. Two goroutines split the
// work; each entry is written by exactly one of them.
func (in *inputs) expect(ds *ksp.Dataset, idxs []int) error {
	var missing []int
	for _, i := range idxs {
		if !in.known[i] {
			in.known[i] = true
			missing = append(missing, i)
		}
	}
	algo := referenceAlgo(in.w.algo)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < len(missing); j += clients {
				i := missing[j]
				res, _, err := ds.SearchWith(algo, in.pool[i].q, ksp.Options{})
				if err != nil {
					errs[c] = fmt.Errorf("reference query %d: %w", i, err)
					return
				}
				hits := make([]hit, len(res))
				for j, r := range res {
					hits[j] = hit{uri: ds.URI(r.Place), score: r.Score}
				}
				in.expected[i] = hits
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func sameHits(got, want []hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
