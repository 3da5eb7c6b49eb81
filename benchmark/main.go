// Command benchmark is the repository's served-query benchmark: it
// generates a dataset and a query pool from a seed, serves them through
// a real internal/server.Server on a loopback listener configured as
// kspserver configures it, drives /search closed-loop from two clients,
// checks every kind of answer against an independent reference, and
// prints end-to-end metrics (timed run) and a per-layer table (traced
// run). See README.md for the metric and workload glossary.
//
// One workload, the way the benchmark contract invokes it:
//
//	bash benchmark/run.sh --workload yago_sp --seed 1 --seconds 10 --trace 0
//
// The whole set, twice, with the spread of every end-to-end metric
// judged against its bound:
//
//	bash benchmark/run.sh -repeat 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty = every workload, each in a child process)")
		seed    = flag.Int64("seed", 1, "seed for the order the pool is walked in, the open-loop arrivals and the brute-force sample")
		fixture = flag.Int64("fixture", 1, "which generated dataset and query pool to measure; numbers from different fixtures are not comparable")
		seconds = flag.Float64("seconds", 10, "length of the timed run; the traced run and the open-loop probe take half of it each")
		trace   = flag.Int("trace", 2, "0 = timed run only (end-to-end metrics), 1 = traced run only (per-layer metrics), 2 = both")
		repeat  = flag.Int("repeat", 1, "run the whole set this many times and judge each end-to-end metric's spread against its bound")
	)
	flag.Parse()
	if *trace < 0 || *trace > 2 || *seconds <= 0 || *repeat < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("ksp served-query benchmark: seed=%d fixture=%d seconds=%g trace=%d go=%s GOMAXPROCS=%d NumCPU=%d clients=%d commit=%s\n",
		*seed, *fixture, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), clients, commit())

	if *name == "" {
		if err := runSet(*seed, *fixture, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	os.Exit(execute(w, params{
		seed: *seed, fixture: *fixture, seconds: *seconds,
		endToEnd: *trace != 1, layers: *trace != 0,
		out: &printer{w: os.Stdout},
	}))
}

// execute runs one workload, prints every metric by name with its unit
// (end-to-end first, then the layer table in README order) and, as the
// last line, the result object; it returns the process exit
// code, which is non-zero when the run broke or any answer was wrong.
func execute(w *workload, p params) int {
	p.out.printf("workload %s: %s\n", w.name, w.why)
	res, err := runWorkload(w, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	p.out.printf("attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.name]; ok {
				p.out.printf("  %-34s %14.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	p.out.printf("%s\n", line)
	if p.out.err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing results:", p.out.err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printer writes the run's report and remembers the first write error,
// so a report that did not reach its destination fails the run.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...interface{}) {
	if _, err := fmt.Fprintf(p.w, format, args...); err != nil && p.err == nil {
		p.err = err
	}
}

// commit reports the VCS revision the binary was built from, when the
// toolchain stamped one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// median of a non-empty sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
