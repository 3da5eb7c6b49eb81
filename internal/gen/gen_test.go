package gen

import (
	"testing"

	"ksp/internal/invindex"
	"ksp/internal/rdf"
)

func TestGenerateShape(t *testing.T) {
	cfg := DBpediaConfig(5000, 1)
	g := Generate(cfg)
	if g.NumVertices() != 5000 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	wantEdges := int(float64(cfg.NumVertices) * cfg.AvgOutDegree)
	// Dedup may remove a few duplicates.
	if g.NumEdges() < wantEdges*9/10 || g.NumEdges() > wantEdges {
		t.Errorf("NumEdges = %d, want ≈%d", g.NumEdges(), wantEdges)
	}
	wantPlaces := int(float64(cfg.NumVertices) * cfg.PlaceFraction)
	if got := len(g.Places()); got != wantPlaces {
		t.Errorf("places = %d, want %d", got, wantPlaces)
	}
	// One giant WCC (the backbone guarantees it).
	sizes := g.WCCSizes()
	if sizes[0] != 5000 {
		t.Errorf("largest WCC = %d, want 5000 (sizes %v...)", sizes[0], sizes[:minInt(len(sizes), 5)])
	}
	// Every place is inside the extent.
	for _, p := range g.Places() {
		loc := g.Loc(p)
		if loc.X < 0 || loc.X > cfg.Extent || loc.Y < 0 || loc.Y > cfg.Extent {
			t.Fatalf("place %d out of extent: %v", p, loc)
		}
	}
	// Non-empty documents everywhere.
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if len(g.Doc(v)) == 0 {
			t.Fatalf("vertex %d has empty document", v)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDeterministic(t *testing.T) {
	a := Generate(DBpediaConfig(1000, 7))
	b := Generate(DBpediaConfig(1000, 7))
	if a.NumEdges() != b.NumEdges() || len(a.Places()) != len(b.Places()) {
		t.Fatal("same seed must give identical graphs")
	}
	for v := uint32(0); int(v) < a.NumVertices(); v++ {
		da, db := a.Doc(v), b.Doc(v)
		if len(da) != len(db) {
			t.Fatalf("vertex %d docs differ", v)
		}
	}
	c := Generate(DBpediaConfig(1000, 8))
	if c.NumEdges() == a.NumEdges() && len(c.Places()) == len(a.Places()) {
		// Same counts are possible, but documents should differ somewhere.
		same := true
		for v := uint32(0); int(v) < a.NumVertices() && same; v++ {
			da, dc := a.Doc(v), c.Doc(v)
			if len(da) != len(dc) {
				same = false
				break
			}
			for i := range da {
				if da[i] != dc[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

// The two dataset shapes must differ the way the paper's do: DBpedia-like
// text is much denser (higher average posting-list length) and Yago-like
// has a far larger place fraction.
func TestDatasetContrast(t *testing.T) {
	db := Generate(DBpediaConfig(8000, 2))
	yg := Generate(YagoConfig(8000, 2))
	dbAvg := meanPostingLen(t, invindex.FromGraph(db))
	ygAvg := meanPostingLen(t, invindex.FromGraph(yg))
	if dbAvg < 2*ygAvg {
		t.Errorf("DBpedia-like avg posting %.2f should far exceed Yago-like %.2f", dbAvg, ygAvg)
	}
	if len(db.Places())*3 > len(yg.Places()) {
		t.Errorf("Yago-like must have many more places: %d vs %d", len(yg.Places()), len(db.Places()))
	}
}

// meanPostingLen is the mean posting-list length over the terms with at
// least one posting, the keyword-frequency statistic the paper reports
// for DBpedia (56.46) and Yago (7.83).
func meanPostingLen(t *testing.T, ix invindex.Index) float64 {
	var postings, terms int
	var buf []invindex.Posting
	for term := 0; term < ix.NumTerms(); term++ {
		var err error
		if buf, err = ix.Postings(uint32(term), buf[:0]); err != nil {
			t.Fatal(err)
		}
		if len(buf) > 0 {
			postings += len(buf)
			terms++
		}
	}
	if terms == 0 {
		return 0
	}
	return float64(postings) / float64(terms)
}

func TestQueryGenOriginal(t *testing.T) {
	g := Generate(DBpediaConfig(3000, 3))
	qg := NewQueryGen(g, rdf.Outgoing, 99)
	for i := 0; i < 20; i++ {
		m := 1 + i%10
		loc, kws := qg.Original(m)
		if len(kws) != m {
			t.Fatalf("got %d keywords, want %d", len(kws), m)
		}
		seen := map[string]bool{}
		for _, k := range kws {
			if k == "" {
				t.Fatal("empty keyword")
			}
			if seen[k] {
				t.Fatalf("duplicate keyword %q", k)
			}
			seen[k] = true
			if _, ok := g.Vocab.Lookup(k); !ok {
				t.Fatalf("keyword %q not in vocabulary", k)
			}
		}
		if loc.X < -qg.Range && loc.X > 100+qg.Range {
			t.Fatalf("location %v far outside extent", loc)
		}
	}
}

func TestQueryGenHardQueries(t *testing.T) {
	g := Generate(DBpediaConfig(4000, 5))
	qg := NewQueryGen(g, rdf.Outgoing, 17)
	locS, kwsS := qg.SDLL(5)
	locL, kwsL := qg.LDLL(5)
	if len(kwsS) != 5 || len(kwsL) != 5 {
		t.Fatalf("keyword counts: %d, %d", len(kwsS), len(kwsL))
	}
	// All hard keywords must be infrequent.
	for _, kws := range [][]string{kwsS, kwsL} {
		for _, k := range kws {
			id, ok := g.Vocab.Lookup(k)
			if !ok {
				t.Fatalf("keyword %q unknown", k)
			}
			if qg.freq[id] >= qg.InfreqCap {
				t.Errorf("keyword %q has freq %d >= cap %d", k, qg.freq[id], qg.InfreqCap)
			}
		}
	}
	// LDLL locations sit far outside the spatial extent; SDLL within it.
	if locL.Y < 50 {
		t.Errorf("LDLL location %v should be far-shifted", locL)
	}
	if locS.X < -2 || locS.X > 102 || locS.Y < -2 || locS.Y > 102 {
		t.Errorf("SDLL location %v should be near the data", locS)
	}
}

func TestFrequencyBand(t *testing.T) {
	g := Generate(DBpediaConfig(3000, 23))
	qg := NewQueryGen(g, rdf.Outgoing, 29)
	loc, rare := qg.FrequencyBand(5, 0, 0.25)
	_, freq := qg.FrequencyBand(5, 0.75, 1.0)
	if len(rare) != 5 || len(freq) != 5 {
		t.Fatalf("keyword counts: %d, %d", len(rare), len(freq))
	}
	if loc.X < -qg.Range-1 || loc.X > 100+qg.Range+1 {
		t.Errorf("location %v outside plausible range", loc)
	}
	maxRare, minFreq := 0, 1<<30
	for _, k := range rare {
		id, ok := g.Vocab.Lookup(k)
		if !ok {
			t.Fatalf("unknown keyword %q", k)
		}
		if qg.freq[id] > maxRare {
			maxRare = qg.freq[id]
		}
	}
	for _, k := range freq {
		id, _ := g.Vocab.Lookup(k)
		if qg.freq[id] < minFreq {
			minFreq = qg.freq[id]
		}
	}
	if maxRare >= minFreq {
		t.Errorf("bands overlap: max rare freq %d >= min frequent freq %d", maxRare, minFreq)
	}
	// A band narrower than m keywords still yields m distinct keywords.
	_, tiny := qg.FrequencyBand(5, 0.5, 0.5001)
	if len(tiny) != 5 {
		t.Errorf("narrow band gave %d keywords", len(tiny))
	}
}

func TestRandomJump(t *testing.T) {
	g := Generate(YagoConfig(4000, 9))
	for _, target := range []int{500, 1000, 2000} {
		s := RandomJump(g, target, 0.15, 21)
		if s.NumVertices() != target {
			t.Fatalf("sample size = %d, want %d", s.NumVertices(), target)
		}
		if s.NumEdges() == 0 {
			t.Error("sample should retain some edges")
		}
		if len(s.Places()) == 0 {
			t.Error("sample should retain some places")
		}
		// Induced edges connect sampled vertices only; spot-check that
		// sampled vertices preserve their documents.
		v0 := uint32(0)
		orig, ok := g.VertexByURI(s.URI(v0))
		if !ok {
			t.Fatal("sampled vertex URI missing from original graph")
		}
		if len(s.Doc(v0)) != len(g.Doc(orig)) {
			t.Errorf("document length changed: %d vs %d", len(s.Doc(v0)), len(g.Doc(orig)))
		}
		if s.IsPlace(v0) != g.IsPlace(orig) {
			t.Error("place flag changed")
		}
	}
	// Oversized target degrades to the full graph.
	s := RandomJump(g, 10000, 0.15, 21)
	if s.NumVertices() != g.NumVertices() {
		t.Errorf("oversized sample = %d, want full %d", s.NumVertices(), g.NumVertices())
	}
}

func TestRandomJumpPlaceRatioPreserved(t *testing.T) {
	g := Generate(YagoConfig(6000, 11))
	s := RandomJump(g, 2000, 0.15, 13)
	origRatio := float64(len(g.Places())) / float64(g.NumVertices())
	sampleRatio := float64(len(s.Places())) / float64(s.NumVertices())
	if sampleRatio < origRatio/2 || sampleRatio > origRatio*2 {
		t.Errorf("place ratio drifted: %.3f vs %.3f", sampleRatio, origRatio)
	}
}
