package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"ksp"
	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// The serving property of a snapshot: loaded onto the heap and opened
// with a memory mapping, it must return byte-identical /search results —
// same places, same scores, same trees, bit for bit after JSON encoding.
func TestSearchModesByteIdentical(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(600, 41))
	build, err := ksp.NewDatasetFromGraph(g, ksp.Config{
		Direction:    ksp.Outgoing,
		AlphaRadius:  2,
		Reachability: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "snap.bin")
	if err := build.Save(snapPath); err != nil {
		t.Fatal(err)
	}

	cfg := ksp.DefaultConfig()
	cfg.AlphaRadius = 2
	mem, err := ksp.LoadSnapshot(snapPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mmapCfg := cfg
	mmapCfg.Mmap = true
	mapped, err := ksp.LoadSnapshot(snapPath, mmapCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := mapped.Close(); err != nil {
			t.Error(err)
		}
	}()
	// Without a mapping the snapshot is read onto the heap, documents
	// and all; mapped, the documents are views of the mapping.
	if mem.Stats().MemoryMapped || !mapped.Stats().MemoryMapped {
		t.Fatalf("MemoryMapped = %v read, %v mapped; want false, true", mem.Stats().MemoryMapped, mapped.Stats().MemoryMapped)
	}

	servers := map[string]*httptest.Server{
		"memory": httptest.NewServer(New(mem)),
		"mmap":   httptest.NewServer(New(mapped)),
	}
	for _, srv := range servers {
		defer srv.Close()
	}

	qg := gen.NewQueryGen(g, rdf.Outgoing, 17)
	for trial := 0; trial < 8; trial++ {
		loc, kws := qg.Original(3)
		kw := kws[0]
		for _, w := range kws[1:] {
			kw += "," + w
		}
		for _, algo := range []string{"SP", "SPP"} {
			query := fmt.Sprintf("/search?x=%v&y=%v&kw=%s&k=5&algo=%s&trees=1", loc.X, loc.Y, kw, algo)
			// Results (not stats — timings differ) must be byte-identical
			// across the two serving modes.
			var wantBytes []byte
			var wantMode string
			for mode, srv := range servers {
				var got SearchResponse
				resp := getJSON(t, srv.URL+query, &got)
				if resp.StatusCode != 200 {
					t.Fatalf("%s %s: status %d", mode, query, resp.StatusCode)
				}
				b, err := json.Marshal(got.Results)
				if err != nil {
					t.Fatal(err)
				}
				if wantBytes == nil {
					wantBytes, wantMode = b, mode
					continue
				}
				if string(b) != string(wantBytes) {
					t.Fatalf("trial %d %s: %s results differ from %s:\n%s\nvs\n%s",
						trial, query, mode, wantMode, b, wantBytes)
				}
			}
		}
	}

	// /describe pages documents from the mapped snapshot file; the
	// rendered terms must match the in-memory dataset's too.
	for v := uint32(0); v < 40; v++ {
		uri := url.QueryEscape(mem.URI(v))
		var wantBytes []byte
		for mode, srv := range servers {
			var got DescribeResponse
			resp := getJSON(t, fmt.Sprintf("%s/describe?uri=%s", srv.URL, uri), &got)
			if resp.StatusCode != 200 {
				t.Fatalf("%s describe %d: status %d", mode, v, resp.StatusCode)
			}
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if wantBytes == nil {
				wantBytes = b
				continue
			}
			if string(b) != string(wantBytes) {
				t.Fatalf("describe %d differs in mode %s: %s vs %s", v, mode, b, wantBytes)
			}
		}
	}
}
