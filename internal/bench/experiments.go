package bench

import (
	"bytes"
	"fmt"
	"time"

	"ksp/internal/alpha"
	"ksp/internal/core"
	"ksp/internal/gen"
	"ksp/internal/invindex"
	"ksp/internal/nt"
	"ksp/internal/rdf"
	"ksp/internal/reach"
	"ksp/internal/rtree"
)

// Paper parameter grids (Section 6.1: defaults k=5, |q.ψ|=5, α=3).
var (
	kValues     = []int{1, 3, 5, 8, 10, 15, 20}
	mValues     = []int{1, 3, 5, 8, 10}
	alphaValues = []int{1, 2, 3, 5}
)

const (
	defaultK = 5
	defaultM = 5
)

// ExperimentIDs lists the runnable experiments in paper order.
func ExperimentIDs() []string {
	return []string{
		"table4", "table5", "table6", "table7",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ablation", "freq",
	}
}

// Run executes one experiment (or "all") and prints its reports.
func (s *Suite) Run(id string) error {
	if id == "all" {
		for _, x := range ExperimentIDs() {
			if err := s.Run(x); err != nil {
				return err
			}
		}
		return nil
	}
	reports, err := s.Experiment(id)
	if err != nil {
		return err
	}
	for _, r := range reports {
		if err := r.Print(s.Out); err != nil {
			return err
		}
	}
	return nil
}

// Experiment builds the reports of one experiment.
func (s *Suite) Experiment(id string) ([]*Report, error) {
	switch id {
	case "table4":
		return s.table4()
	case "table5":
		return s.table5()
	case "table6":
		return s.table6()
	case "table7":
		return s.table7()
	case "fig3":
		return s.varyK(DBpediaLike, "fig3", "Varying k on DBpedia-like (Figure 3)")
	case "fig4":
		return s.varyK(YagoLike, "fig4", "Varying k on Yago-like (Figure 4)")
	case "fig5":
		return s.fig5()
	case "fig6":
		return s.fig6()
	case "fig7":
		return s.fig7()
	case "fig8":
		return s.fig8()
	case "fig9":
		return s.fig9()
	case "fig10":
		return s.fig10()
	case "ablation":
		return s.ablation()
	case "freq":
		return s.freq()
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
}

// --- Table 4: storage cost ---

func (s *Suite) table4() ([]*Report, error) {
	r := &Report{
		ID:     "table4",
		Title:  "Storage cost (Table 4)",
		Header: []string{"Data", "R-tree", "RDF graph", "Inverted index (mem)", "Documents (snapshot)"},
		Notes: []string{
			"paper: DBpedia 50.54MB / 607.95MB / 1307.98MB; Yago 273.17MB / 454.81MB / 231.91MB",
			"shape: Yago-like R-tree larger (more places); DBpedia-like inverted index larger (denser text)",
			"Documents (snapshot): the document arrays a snapshot stores of the text; the inverted index is rebuilt from them at open",
		},
	}
	for _, name := range []string{DBpediaLike, YagoLike} {
		d := s.Data(name)
		a := d.g.Arrays()
		docs := 4 * int64(len(a.DocOff)+len(a.DocTerms))
		r.AddRow(name, mb(d.base.Tree.MemSize()), mb(d.g.MemSize()), mb(invindex.FromGraph(d.g).MemSize()), mb(docs))
	}
	return []*Report{r}, nil
}

func mb(b int64) string { return fmt.Sprintf("%.2fMB", float64(b)/(1<<20)) }

// --- Table 5: preprocessing and indexing time ---

func (s *Suite) table5() ([]*Report, error) {
	r := &Report{
		ID:     "table5",
		Title:  "Preprocessing and indexing time (Table 5)",
		Header: []string{"Data", "R-tree (insert)", "R-tree (STR bulk)", "Inverted index", "Reachability", "α=3 WN", "N-Triples load"},
		Notes: []string{
			"paper (minutes): DBpedia 3.17 / 4.61 / 22.60 / 1192.01; Yago 31.90 / 1.00 / 6.09 / 101.61",
			"shape: α-WN construction dominates the index builds by orders of magnitude; bulk loading beats insertion",
			"N-Triples load: nt.Load and Build of the dataset's WriteGraph export, what opening it from a dump costs before any index is built",
		},
	}
	for _, name := range []string{DBpediaLike, YagoLike} {
		d := s.Data(name)
		places := d.g.Places()
		items := make([]rtree.Item, len(places))
		for i, p := range places {
			items[i] = rtree.Item{ID: p, Loc: d.g.Loc(p)}
		}

		start := time.Now()
		t := rtree.NewInserter(rtree.DefaultMaxEntries)
		for _, it := range items {
			t.Insert(it)
		}
		insertT := time.Since(start)

		itemsCopy := append([]rtree.Item(nil), items...)
		start = time.Now()
		bulkTree := rtree.Bulk(itemsCopy, rtree.DefaultMaxEntries)
		bulkT := time.Since(start)

		start = time.Now()
		invindex.FromGraph(d.g)
		invT := time.Since(start)

		start = time.Now()
		reach.NewKeywordIndex(d.g, rdf.Outgoing)
		reachT := time.Since(start)

		start = time.Now()
		alpha.Build(d.g, bulkTree, 3, rdf.Outgoing)
		alphaT := time.Since(start)

		var dump bytes.Buffer
		if err := nt.WriteGraph(d.g, &dump); err != nil {
			return nil, err
		}
		start = time.Now()
		b := rdf.NewBuilder()
		if _, err := nt.Load(&dump, b); err != nil {
			return nil, err
		}
		b.Build()
		loadT := time.Since(start)

		r.AddRow(name, ms(insertT)+"ms", ms(bulkT)+"ms", ms(invT)+"ms", ms(reachT)+"ms", ms(alphaT)+"ms", ms(loadT)+"ms")
	}
	return []*Report{r}, nil
}

// --- Table 6: α-radius word neighbourhood size ---

func (s *Suite) table6() ([]*Report, error) {
	r := &Report{
		ID:     "table6",
		Title:  "α-radius word neighbourhood size (Table 6)",
		Header: []string{"Data", "α=1", "α=2", "α=3", "α=5"},
		Notes: []string{
			"paper (GB): DBpedia 3.56 / 24.33 / 32.53 / 204.70; Yago 1.07 / 3.61 / 12.37 / 30.63",
			"shape: size grows steeply with α; moderate through α=3, explodes at α=5",
			"first row per dataset: the paper's accounting, five bytes a posting; 'resident': what the index holds in memory, a frequent term as a nibble per place or node (alpha.File)",
		},
	}
	for _, name := range []string{DBpediaLike, YagoLike} {
		d := s.Data(name)
		paper, resident := []string{name}, []string{name + " resident"}
		for _, a := range alphaValues {
			e := d.engine(a)
			paper = append(paper, mb(e.Alpha.ApproxBytes()))
			resident = append(resident, mb(e.Alpha.MemSize()))
		}
		r.AddRow(paper...)
		r.AddRow(resident...)
	}
	return []*Report{r}, nil
}

// --- Table 7: random-jump scalability datasets ---

// fig7Fractions are the sample sizes relative to the full graph (the paper
// samples 2M/4M/6M/8M vertices out of Yago's 8.09M).
var fig7Fractions = []float64{0.25, 0.5, 0.75, 1.0}

func (s *Suite) samples() []*rdf.Graph {
	d := s.Data(YagoLike)
	out := make([]*rdf.Graph, len(fig7Fractions))
	for i, f := range fig7Fractions {
		if f >= 1.0 {
			out[i] = d.g
			continue
		}
		out[i] = gen.RandomJump(d.g, int(float64(s.Scale)*f), 0.15, s.Seed+int64(100+i))
	}
	return out
}

func (s *Suite) table7() ([]*Report, error) {
	r := &Report{
		ID:     "table7",
		Title:  "Datasets extracted by random jump sampling, c=0.15 (Table 7)",
		Header: []string{"# vertices", "# edges", "# places"},
		Notes:  []string{"paper: 2M/11.66M/1.14M · 4M/24.17M/2.32M · 6M/36.97M/3.51M · 8.09M/50.42M/4.77M", "shape: edges and places grow roughly linearly with sampled vertices"},
	}
	for _, g := range s.samples() {
		r.AddRow(fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()), fmt.Sprint(len(g.Places())))
	}
	return []*Report{r}, nil
}

// --- Figures 3 and 4: varying k ---

func (s *Suite) varyK(dataset, id, title string) ([]*Report, error) {
	d := s.Data(dataset)
	qs := d.workload(classO, s.Queries, defaultM, defaultK)
	runtime := &Report{ID: id, Title: title + " — runtime (ms)",
		Header: []string{"k", "BSP sem", "BSP other", "SPP sem", "SPP other", "SP sem", "SP other"},
		Notes:  []string{"paper shape: SP 240–1865× faster than BSP and 2–5× faster than SPP on DBpedia; semantic time dominates"}}
	tqsp := &Report{ID: id, Title: title + " — mean TQSP computations",
		Header: []string{"k", "BSP", "SPP", "SP"},
		Notes:  []string{"paper shape: SP computes TQSPs for only a handful of places; SPP for many more; BSP capped by its deadline"}}
	nodes := &Report{ID: id, Title: title + " — mean R-tree node accesses",
		Header: []string{"k", "BSP", "SPP", "SP"},
		Notes:  []string{"paper shape: SP accesses few nodes (≈6 on DBpedia); BSP/SPP access hundreds"}}

	for _, k := range kValues {
		wk := withK(qs, k)
		mBSP, err := s.runWorkload(d.base, core.AlgoBSP, wk, core.Options{})
		if err != nil {
			return nil, err
		}
		mSPP, err := s.runWorkload(d.base, core.AlgoSPP, wk, core.Options{})
		if err != nil {
			return nil, err
		}
		mSP, err := s.runWorkload(d.base, core.AlgoSP, wk, core.Options{})
		if err != nil {
			return nil, err
		}
		runtime.AddRow(fmt.Sprint(k), ms(mBSP.Semantic), ms(mBSP.Other), ms(mSPP.Semantic), ms(mSPP.Other), ms(mSP.Semantic), ms(mSP.Other))
		tqsp.AddRow(fmt.Sprint(k), Cell(mBSP.TQSP), Cell(mSPP.TQSP), Cell(mSP.TQSP))
		nodes.AddRow(fmt.Sprint(k), Cell(mBSP.NodeAccess), Cell(mSPP.NodeAccess), Cell(mSP.NodeAccess))
	}
	return []*Report{runtime, tqsp, nodes}, nil
}

// --- Figure 5: varying |q.ψ| ---

func (s *Suite) fig5() ([]*Report, error) {
	var out []*Report
	for _, name := range []string{DBpediaLike, YagoLike} {
		d := s.Data(name)
		r := &Report{ID: "fig5", Title: "Varying |q.ψ| on " + name + " (Figure 5) — runtime (ms)",
			Header: []string{"|q.ψ|", "BSP sem", "BSP other", "SPP sem", "SPP other", "SP sem", "SP other"},
			Notes:  []string{"paper shape: runtimes grow with |q.ψ|; SP fastest with a widening gap"}}
		for _, m := range mValues {
			qs := d.workload(classO, s.Queries, m, defaultK)
			mBSP, err := s.runWorkload(d.base, core.AlgoBSP, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			mSPP, err := s.runWorkload(d.base, core.AlgoSPP, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			mSP, err := s.runWorkload(d.base, core.AlgoSP, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			r.AddRow(fmt.Sprint(m), ms(mBSP.Semantic), ms(mBSP.Other), ms(mSPP.Semantic), ms(mSPP.Other), ms(mSP.Semantic), ms(mSP.Other))
		}
		out = append(out, r)
	}
	return out, nil
}

// --- Figure 6: tuning α ---

func (s *Suite) fig6() ([]*Report, error) {
	var out []*Report
	for _, name := range []string{DBpediaLike, YagoLike} {
		d := s.Data(name)
		r := &Report{ID: "fig6", Title: "SP runtime (ms) varying α on " + name + " (Figure 6)",
			Header: append([]string{"α"}, kHeader()...),
			Notes: []string{
				"paper shape: runtime drops sharply from α=1 to α=3; α=5 helps on DBpedia but can hurt on Yago",
				"α=3 is the recommended operating point (performance vs index size)",
			}}
		qs := d.workload(classO, s.Queries, defaultM, defaultK)
		for _, a := range alphaValues {
			e := d.engine(a)
			row := []string{fmt.Sprint(a)}
			for _, k := range kValues {
				m, err := s.runWorkload(e, core.AlgoSP, withK(qs, k), core.Options{})
				if err != nil {
					return nil, err
				}
				row = append(row, ms(m.total()))
			}
			r.AddRow(row...)
		}
		out = append(out, r)
	}
	return out, nil
}

func kHeader() []string {
	h := make([]string, len(kValues))
	for i, k := range kValues {
		h[i] = fmt.Sprintf("k=%d", k)
	}
	return h
}

// --- Figure 7: scalability by random jump sampling ---

func (s *Suite) fig7() ([]*Report, error) {
	samples := s.samples()
	// Queries are generated on the smallest dataset and applied to all
	// (Section 6.2.4).
	smallest := samples[0]
	qg := gen.NewQueryGen(smallest, rdf.Outgoing, s.Seed+333)
	qs := make([]core.Query, s.Queries)
	for i := range qs {
		loc, kws := qg.Original(defaultM)
		qs[i] = core.Query{Loc: loc, Keywords: kws, K: defaultK}
	}
	runtime := &Report{ID: "fig7", Title: "Scalability on Yago-like random-jump samples (Figure 7) — runtime (ms)",
		Header: []string{"vertices", "BSP sem", "BSP other", "SPP sem", "SPP other", "SP sem", "SP other"},
		Notes:  []string{"paper shape: BSP/SPP grow moderately with graph size; SP stays flat or slightly decreases"}}
	nodes := &Report{ID: "fig7", Title: "Scalability (Figure 7) — mean R-tree node accesses",
		Header: []string{"vertices", "BSP", "SPP", "SP"}}
	for _, g := range samples {
		e := core.NewEngine(g, rdf.Outgoing)
		e.EnableReach()
		e.EnableAlpha(3)
		mBSP, err := s.runWorkload(e, core.AlgoBSP, qs, core.Options{})
		if err != nil {
			return nil, err
		}
		mSPP, err := s.runWorkload(e, core.AlgoSPP, qs, core.Options{})
		if err != nil {
			return nil, err
		}
		mSP, err := s.runWorkload(e, core.AlgoSP, qs, core.Options{})
		if err != nil {
			return nil, err
		}
		runtime.AddRow(fmt.Sprint(g.NumVertices()), ms(mBSP.Semantic), ms(mBSP.Other), ms(mSPP.Semantic), ms(mSPP.Other), ms(mSP.Semantic), ms(mSP.Other))
		nodes.AddRow(fmt.Sprint(g.NumVertices()), Cell(mBSP.NodeAccess), Cell(mSPP.NodeAccess), Cell(mSP.NodeAccess))
	}
	return []*Report{runtime, nodes}, nil
}

// --- Figure 8: result characteristics of SDLL / LDLL / O queries ---

func (s *Suite) fig8() ([]*Report, error) {
	var out []*Report
	for _, name := range []string{DBpediaLike, YagoLike} {
		d := s.Data(name)
		dist := &Report{ID: "fig8", Title: "Average result spatial distance S() on " + name + " (Figure 8)",
			Header: append([]string{"class"}, kHeader()...),
			Notes:  []string{"paper shape: SDLL results nearest, LDLL farthest, O in between"}}
		loose := &Report{ID: "fig8", Title: "Average result looseness L() on " + name + " (Figure 8)",
			Header: append([]string{"class"}, kHeader()...),
			Notes:  []string{"paper shape: SDLL and LDLL loosenesses far exceed O's"}}
		for _, class := range []queryClass{classSDLL, classLDLL, classO} {
			qs := d.workload(class, s.Queries, defaultM, defaultK)
			drow := []string{className(class)}
			lrow := []string{className(class)}
			for _, k := range kValues {
				m, err := s.runWorkload(d.base, core.AlgoSP, withK(qs, k), core.Options{})
				if err != nil {
					return nil, err
				}
				var sSum, lSum float64
				for _, res := range m.Results {
					sSum += res.Dist
					lSum += res.Looseness
				}
				n := float64(len(m.Results))
				if n == 0 {
					n = 1
				}
				drow = append(drow, Cell(sSum/n))
				lrow = append(lrow, Cell(lSum/n))
			}
			dist.AddRow(drow...)
			loose.AddRow(lrow...)
		}
		out = append(out, dist, loose)
	}
	return out, nil
}

func className(c queryClass) string {
	switch c {
	case classSDLL:
		return "SDLL"
	case classLDLL:
		return "LDLL"
	default:
		return "O"
	}
}

// --- Figure 9: runtime on large-looseness queries ---

func (s *Suite) fig9() ([]*Report, error) {
	d := s.Data(DBpediaLike)
	var out []*Report
	for _, class := range []queryClass{classSDLL, classLDLL} {
		r := &Report{ID: "fig9", Title: "Runtime (ms) on " + className(class) + " queries, DBpedia-like (Figure 9)",
			Header: []string{"k", "BSP sem", "BSP other", "SPP sem", "SPP other", "SP sem", "SP other"},
			Notes:  []string{"paper shape: SP still wins by orders of magnitude; hard queries cost ≈5–11× more than O queries; SDLL ≈ LDLL (looseness, not distance, dominates)"}}
		qs := d.workload(class, s.Queries, defaultM, defaultK)
		for _, k := range kValues {
			wk := withK(qs, k)
			mBSP, err := s.runWorkload(d.base, core.AlgoBSP, wk, core.Options{})
			if err != nil {
				return nil, err
			}
			mSPP, err := s.runWorkload(d.base, core.AlgoSPP, wk, core.Options{})
			if err != nil {
				return nil, err
			}
			mSP, err := s.runWorkload(d.base, core.AlgoSP, wk, core.Options{})
			if err != nil {
				return nil, err
			}
			r.AddRow(fmt.Sprint(k), ms(mBSP.Semantic), ms(mBSP.Other), ms(mSPP.Semantic), ms(mSPP.Other), ms(mSP.Semantic), ms(mSP.Other))
		}
		out = append(out, r)
	}
	return out, nil
}

// --- Figure 10: comparison with top-k aggregation (TA) ---

func (s *Suite) fig10() ([]*Report, error) {
	var out []*Report
	for _, name := range []string{DBpediaLike, YagoLike} {
		d := s.Data(name)
		r := &Report{ID: "fig10", Title: "TA vs BSP/SPP/SP on " + name + " (Figure 10) — runtime (ms)",
			Header: []string{"|q.ψ|", "TA", "BSP", "SPP", "SP"},
			Notes:  []string{"paper shape: TA competitive only at |q.ψ|=1; for |q.ψ|≥3 TA is slower than even BSP"}}
		for _, m := range mValues {
			qs := d.workload(classO, s.Queries, m, defaultK)
			mTA, err := s.runWorkload(d.base, core.AlgoTA, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			mBSP, err := s.runWorkload(d.base, core.AlgoBSP, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			mSPP, err := s.runWorkload(d.base, core.AlgoSPP, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			mSP, err := s.runWorkload(d.base, core.AlgoSP, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			r.AddRow(fmt.Sprint(m), ms(mTA.total()), ms(mBSP.total()), ms(mSPP.total()), ms(mSP.total()))
		}
		out = append(out, r)
	}
	return out, nil
}

// --- Supplementary: keyword-frequency bands ---

// freq isolates the variable the paper credits for the DBpedia/Yago cost
// gap — keyword document frequency — on a single dataset: queries drawn
// entirely from low / mid / high-frequency terms.
func (s *Suite) freq() ([]*Report, error) {
	var out []*Report
	for _, name := range []string{DBpediaLike, YagoLike} {
		d := s.Data(name)
		r := &Report{ID: "freq", Title: "Keyword-frequency bands on " + name + " (supplementary)",
			Header: []string{"band", "BSP (ms)", "SPP (ms)", "SP (ms)", "SPP TQSPs", "SP TQSPs"},
			Notes: []string{
				"expectation from the paper's DBpedia-vs-Yago analysis: rare keywords make qualification harder (more Rule-1 rejections, deeper BFS); frequent keywords finish near the root",
			}}
		bands := []struct {
			name   string
			lo, hi float64
		}{
			{"rare (0-25%)", 0, 0.25},
			{"mid (40-60%)", 0.40, 0.60},
			{"frequent (75-100%)", 0.75, 1.0},
		}
		for _, band := range bands {
			qs := make([]core.Query, s.Queries)
			for i := range qs {
				loc, kws := d.qg.FrequencyBand(defaultM, band.lo, band.hi)
				qs[i] = core.Query{Loc: loc, Keywords: kws, K: defaultK}
			}
			mBSP, err := s.runWorkload(d.base, core.AlgoBSP, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			mSPP, err := s.runWorkload(d.base, core.AlgoSPP, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			mSP, err := s.runWorkload(d.base, core.AlgoSP, qs, core.Options{})
			if err != nil {
				return nil, err
			}
			r.AddRow(band.name, ms(mBSP.total()), ms(mSPP.total()), ms(mSP.total()),
				Cell(mSPP.TQSP), Cell(mSP.TQSP))
		}
		out = append(out, r)
	}
	return out, nil
}

// --- Ablation: contribution of each pruning rule ---

func (s *Suite) ablation() ([]*Report, error) {
	d := s.Data(DBpediaLike)
	qs := d.workload(classO, s.Queries, defaultM, defaultK)
	r := &Report{ID: "ablation", Title: "Pruning-rule ablation on DBpedia-like (Sections 4–5 design choices)",
		Header: []string{"variant", "runtime (ms)", "TQSP computations", "node accesses"},
		Notes:  []string{"expected: disabling any rule raises cost; Rule 2 mostly saves semantic time, Rules 3/4 save node accesses"}}
	variants := []struct {
		name string
		a    core.Algorithm
		opts core.Options
	}{
		{"SPP (full)", core.AlgoSPP, core.Options{}},
		{"SPP w/o Rule 1", core.AlgoSPP, core.Options{NoRule1: true}},
		{"SPP w/o Rule 2", core.AlgoSPP, core.Options{NoRule2: true}},
		{"SP (full)", core.AlgoSP, core.Options{}},
		{"SP w/o Rule 1", core.AlgoSP, core.Options{NoRule1: true}},
		{"SP w/o Rule 2", core.AlgoSP, core.Options{NoRule2: true}},
		{"BSP (no pruning)", core.AlgoBSP, core.Options{}},
	}
	for _, v := range variants {
		m, err := s.runWorkload(d.base, v.a, qs, v.opts)
		if err != nil {
			return nil, err
		}
		r.AddRow(v.name, ms(m.total()), Cell(m.TQSP), Cell(m.NodeAccess))
	}

	// Edge-direction ablation (the paper's future-work variant).
	und := &Report{ID: "ablation", Title: "Edge-direction ablation (directed vs undirected trees)",
		Header: []string{"direction", "SP runtime (ms)", "TQSP computations"},
		Notes:  []string{"undirected reaches more keyword vertices, so trees are tighter but search touches more of the graph"}}
	for _, dir := range []rdf.Direction{rdf.Outgoing, rdf.Undirected} {
		e := core.NewEngine(d.g, dir)
		e.EnableReach()
		e.EnableAlpha(3)
		qg := gen.NewQueryGen(d.g, dir, s.Seed+71)
		dq := make([]core.Query, s.Queries)
		for i := range dq {
			loc, kws := qg.Original(defaultM)
			dq[i] = core.Query{Loc: loc, Keywords: kws, K: defaultK}
		}
		m, err := s.runWorkload(e, core.AlgoSP, dq, core.Options{})
		if err != nil {
			return nil, err
		}
		und.AddRow(dir.String(), ms(m.total()), Cell(m.TQSP))
	}
	return []*Report{r, und}, nil
}
