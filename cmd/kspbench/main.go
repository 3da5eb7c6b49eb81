// Command kspbench reproduces the paper's evaluation: every table and
// figure of Section 6 has a corresponding experiment that prints the same
// rows/series over synthetic datasets shaped like DBpedia and Yago.
//
// Usage:
//
//	kspbench -exp all                 # the full evaluation
//	kspbench -exp fig3 -scale 50000   # one experiment at a larger scale
//	kspbench -list
//
// Absolute numbers differ from the paper (synthetic laptop-scale data, Go
// instead of Java); EXPERIMENTS.md records the shape comparisons.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"ksp/internal/bench"
	"ksp/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kspbench: ")
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list), comma-separated ids, or 'all'")
		scale    = flag.Int("scale", 20000, "vertices per synthetic dataset")
		queries  = flag.Int("queries", 20, "queries per setting (the paper uses 100)")
		seed     = flag.Int64("seed", 1, "random seed")
		deadline = flag.Duration("bsp-deadline", 5*time.Second, "per-query cap for BSP/TA (paper: 120s)")
		csvDir   = flag.String("csv", "", "also write each report as CSV into this directory")
		jsonOut  = flag.String("json", "", "write all reports plus run metadata as one JSON document to this file ('-' = stdout)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	s := bench.NewSuite(*scale, *queries, *seed, os.Stdout)
	s.BSPDeadline = *deadline
	// The registry rides along for -json: the document then carries the
	// run's cumulative engine counters next to the report tables.
	reg := obs.NewRegistry()
	if *jsonOut != "" {
		s.Metrics = reg
	}
	start := time.Now()
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = bench.ExperimentIDs()
	}
	// With -json - the JSON document owns stdout; the human-readable
	// tables move to stderr so the output stays machine-parseable.
	tables := io.Writer(os.Stdout)
	if *jsonOut == "-" {
		tables = os.Stderr
	}
	var all []*bench.Report
	for _, id := range ids {
		reports, err := s.Experiment(id)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range reports {
			if err := r.Print(tables); err != nil {
				log.Fatal(err)
			}
		}
		all = append(all, reports...)
		if *csvDir != "" {
			names, err := bench.SaveCSVs(*csvDir, reports)
			if err != nil {
				log.Fatal(err)
			}
			//ksplint:ignore droppederr -- tables is os.Stdout/Stderr; process-stream diagnostics
			fmt.Fprintf(tables, "  csv: %v\n", names)
		}
	}
	if *jsonOut != "" {
		meta := bench.RunMeta{
			Tool:        "kspbench",
			Generated:   time.Now().UTC().Format(time.RFC3339),
			Scale:       *scale,
			Queries:     *queries,
			Seed:        *seed,
			GoVersion:   runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			Experiments: ids,
		}
		w := os.Stdout
		var f *os.File
		if *jsonOut != "-" {
			var err error
			if f, err = os.Create(*jsonOut); err != nil {
				log.Fatal(err)
			}
			w = f
		}
		if err := bench.WriteJSONMetrics(w, meta, all, reg.Snapshot()); err != nil {
			log.Fatal(err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("json: %s\n", *jsonOut)
		}
	}
	//ksplint:ignore droppederr -- tables is os.Stdout/Stderr; process-stream diagnostics
	fmt.Fprintf(tables, "\ncompleted %q at scale %d with %d queries/setting in %v\n",
		*exp, *scale, *queries, time.Since(start).Round(time.Millisecond))
}
