// Command kspquery loads a spatial RDF dataset (N-Triples) and answers
// kSP queries from the command line or from a workload file.
//
// Usage:
//
//	kspquery -data data.nt -at "43.51,4.75" -kw "ancient,roman" -k 5
//	kspquery -data data.nt -workload q.txt -algo SP -stats
//
// The workload file holds one query per line: "x y kw1,kw2,...".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"ksp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kspquery: ")
	var (
		data     = flag.String("data", "", "N-Triples dataset (required)")
		at       = flag.String("at", "", `query location "x,y"`)
		kw       = flag.String("kw", "", "comma-separated query keywords")
		k        = flag.Int("k", 5, "number of places to retrieve")
		algoName = flag.String("algo", "SP", "algorithm: BSP | SPP | SP | TA")
		alphaR   = flag.Int("alpha", 3, "α radius of the word-neighbourhood index (0 disables, at most 255)")
		dirName  = flag.String("dir", "out", "tree direction: out | undirected")
		workload = flag.String("workload", "", "run every query in this file instead of -at/-kw")
		trees    = flag.Bool("trees", false, "print the semantic-place trees")
		stats    = flag.Bool("stats", false, "print per-query cost statistics")
		trace    = flag.Bool("trace", false, "print the evaluation's span tree (timed phases and per-candidate work)")
		traceOut = flag.String("trace-out", "", "write the trace as Chrome/Perfetto trace_event JSON to this file (captures even without -trace)")
		explain  = flag.Bool("explain", false, "print the query's structured plan and execution profile")
		semOnly  = flag.Bool("semantic-only", false, "rank by looseness alone, ignoring location (-at not needed)")
		allTrees = flag.Int("all-trees", 0, "print up to N tied tightest trees per result (footnote 2 option 2)")
		maxDist  = flag.Float64("max-dist", 0, "restrict results to this radius around -at (0 = unlimited)")
		stem     = flag.Bool("stem", false, "enable Porter stemming and stopword removal")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}

	algo, ok := ksp.ParseAlgorithm(*algoName)
	if !ok {
		log.Fatalf("unknown algorithm %q", *algoName)
	}
	cfg := ksp.DefaultConfig()
	cfg.AlphaRadius = *alphaR
	if strings.HasPrefix(strings.ToLower(*dirName), "un") {
		cfg.Direction = ksp.Undirected
	}
	if *stem {
		cfg.Stemming = true
		cfg.RemoveStopwords = true
	}

	start := time.Now()
	ds, err := ksp.OpenFile(*data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := ds.Stats()
	fmt.Printf("loaded %d vertices, %d edges, %d places, %d terms in %v\n",
		st.Vertices, st.Edges, st.Places, st.Terms, time.Since(start).Round(time.Millisecond))

	if *workload != "" {
		runWorkload(ds, algo, *workload, *k, *stats)
		return
	}
	if *semOnly {
		if *kw == "" {
			log.Fatal("need -kw with -semantic-only")
		}
		res, err := ds.KeywordSearch(splitList(*kw), *k)
		if err != nil {
			log.Fatal(err)
		}
		printResults(ds, res, false)
		printTiedTrees(ds, res, splitList(*kw), *allTrees)
		return
	}
	if *at == "" || *kw == "" {
		log.Fatal("need -at and -kw (or -workload, or -semantic-only)")
	}
	loc, err := parsePoint(*at)
	if err != nil {
		log.Fatal(err)
	}
	q := ksp.Query{Loc: loc, Keywords: splitList(*kw), K: *k}
	opts := ksp.Options{CollectTrees: *trees, MaxDist: *maxDist}
	var tr *ksp.Trace
	if *trace || *traceOut != "" {
		tr = ksp.NewTrace("kspquery")
		opts.Trace = tr
	}
	res, qstats, err := ds.SearchWith(algo, q, opts)
	if err != nil {
		log.Fatal(err)
	}
	printResults(ds, res, *trees)
	printTiedTrees(ds, res, q.Keywords, *allTrees)
	if *stats {
		printStats(qstats)
	}
	if *explain {
		printExplain(ds.ExplainFor(algo, q, opts, qstats, len(res)))
	}
	if tr != nil {
		tr.Finish()
		root := tr.JSON()
		if *traceOut != "" {
			if err := writePerfetto(*traceOut, root); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
		}
		if *trace {
			fmt.Println("trace:")
			printSpan(root, 1)
		}
	}
}

// writePerfetto renders the span tree as Chrome/Perfetto trace_event
// JSON, the format flamegraph viewers open directly.
func writePerfetto(path string, root *ksp.SpanJSON) error {
	data, err := json.MarshalIndent(ksp.PerfettoFromSpan(root), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printExplain renders the EXPLAIN report: the plan lines say what the
// engine decided to do, the profile line what the decision cost.
func printExplain(rep *ksp.ExplainReport) {
	p, pr := rep.Plan, rep.Profile
	win := p.WindowPolicy
	if p.Window > 0 {
		win = fmt.Sprintf("%s(%d)", p.WindowPolicy, p.Window)
	}
	fmt.Println("explain:")
	fmt.Printf("  plan: algo=%s k=%d window=%s direction=%s ranking=%s\n",
		p.Algo, p.K, win, p.Direction, p.Ranking)
	fmt.Printf("  rules: r1=%v r2=%v r3=%v r4=%v (alpha=%d reachability=%v cache=%v)\n",
		p.Rule1, p.Rule2, p.Rule3, p.Rule4, p.AlphaRadius, p.Reachability, p.LoosenessCache)
	if len(p.Keywords) > 0 {
		var parts []string
		for _, kw := range p.Keywords {
			parts = append(parts, fmt.Sprintf("%s(df=%d)", kw.Term, kw.DocFrequency))
		}
		fmt.Printf("  keywords (rule-1 order): %s\n", strings.Join(parts, " "))
	}
	if !p.Answerable {
		fmt.Println("  unanswerable: some keyword matches no document")
	}
	fmt.Printf("  profile: %dµs (semantic %dµs) tqsp=%d places=%d pruned r1=%d r2=%d r3=%d r4=%d cache hit/bound/miss=%d/%d/%d\n",
		pr.DurationMicros, pr.SemanticMicros, pr.TQSPComputations, pr.PlacesRetrieved,
		pr.PrunedRule1, pr.PrunedRule2, pr.PrunedRule3, pr.PrunedRule4,
		pr.CacheHits, pr.CacheBoundHits, pr.CacheMisses)
}

// printSpan renders one span and its children, indented by depth.
func printSpan(s *ksp.SpanJSON, depth int) {
	var attrs []string
	for _, a := range s.Attrs {
		attrs = append(attrs, a.Key+"="+a.Value)
	}
	line := fmt.Sprintf("%s%s %dµs", strings.Repeat("  ", depth), s.Name, s.DurationMicros)
	if len(attrs) > 0 {
		line += " [" + strings.Join(attrs, " ") + "]"
	}
	fmt.Println(line)
	for _, c := range s.Children {
		printSpan(c, depth+1)
	}
}

// printTiedTrees lists every minimal-looseness tree of each result when
// -all-trees is set.
func printTiedTrees(ds *ksp.Dataset, res []ksp.Result, kws []string, limit int) {
	if limit <= 0 {
		return
	}
	for _, r := range res {
		trees, loose, err := ds.TightestTrees(r.Place, kws, limit)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s has %d tied tree(s) at looseness %.0f:\n", ds.URI(r.Place), len(trees), loose)
		for i, tr := range trees {
			var names []string
			for _, n := range tr.Nodes {
				names = append(names, ds.URI(n.V))
			}
			fmt.Printf("    %d: %s\n", i+1, strings.Join(names, " | "))
		}
	}
}

func parsePoint(s string) (ksp.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return ksp.Point{}, fmt.Errorf("bad location %q, want \"x,y\"", s)
	}
	x, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	y, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err1 != nil || err2 != nil {
		return ksp.Point{}, fmt.Errorf("bad location %q", s)
	}
	return ksp.Point{X: x, Y: y}, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runWorkload(ds *ksp.Dataset, algo ksp.Algorithm, path string, k int, showStats bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	//ksplint:ignore droppederr -- workload file opened read-only; Close cannot lose data
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	var total ksp.Stats
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		x, err1 := strconv.ParseFloat(fields[0], 64)
		y, err2 := strconv.ParseFloat(fields[1], 64)
		if err1 != nil || err2 != nil {
			log.Fatalf("%s:%d: bad location", path, line)
		}
		q := ksp.Query{Loc: ksp.Point{X: x, Y: y}, Keywords: splitList(fields[2]), K: k}
		res, st, err := ds.SearchWith(algo, q, ksp.Options{})
		if err != nil {
			log.Fatal(err)
		}
		total.Add(st)
		fmt.Printf("query %d: %d results in %v (keywords %v)\n", line, len(res), st.TotalTime().Round(time.Microsecond), q.Keywords)
		printResults(ds, res, false)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if showStats {
		fmt.Println("\naggregate:")
		printStats(&total)
	}
}

func printResults(ds *ksp.Dataset, res []ksp.Result, trees bool) {
	for i, r := range res {
		loc, _ := ds.Location(r.Place)
		fmt.Printf("  %d. %-40s score=%.4f L=%.0f S=%.4f at (%g, %g)\n",
			i+1, ds.URI(r.Place), r.Score, r.Looseness, r.Dist, loc.X, loc.Y)
		if trees && r.Tree != nil {
			for _, n := range r.Tree.Nodes {
				indent := strings.Repeat("  ", n.Depth+2)
				marks := ""
				if len(n.Matched) > 0 {
					marks = fmt.Sprintf("  <- matches %d keyword(s)", len(n.Matched))
				}
				fmt.Printf("%s%s%s\n", indent, ds.URI(n.V), marks)
			}
		}
	}
}

func printStats(st *ksp.Stats) {
	fmt.Printf("  semantic time: %v, other time: %v\n", st.SemanticTime.Round(time.Microsecond), st.OtherTime.Round(time.Microsecond))
	fmt.Printf("  TQSP computations: %d, R-tree node accesses: %d, places retrieved: %d\n",
		st.TQSPComputations, st.RTreeNodeAccesses, st.PlacesRetrieved)
	fmt.Printf("  pruned: rule1=%d rule2=%d rule3=%d rule4=%d; reach queries: %d\n",
		st.PrunedUnqualified, st.PrunedDynamicBound, st.PrunedAlphaPlaces, st.PrunedAlphaNodes, st.ReachQueries)
}
