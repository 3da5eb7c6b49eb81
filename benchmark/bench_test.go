package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// BENCHMARK.json and the driver's own tables must name the same
// workloads and metrics, with the same units, directions and bounds.
func TestManifestMatchesDriver(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the driver %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the driver %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the driver %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound mismatch", kind, d.name)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s metric name %q is outside the allowed alphabet", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if seen[d.name] {
				t.Errorf("metric %s is listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
}

// One cycle of every workload at a small scale: every metric named in
// BENCHMARK.json comes out exactly once, with its unit and a finite
// value, every answer verifies, and the spans are written.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	want := map[string]string{}
	for _, d := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		want[d.Name] = d.Unit
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			t.Setenv("TMPDIR", t.TempDir()) // artefacts and trace.json go here
			tracePath := filepath.Join(os.TempDir(), "trace.json")
			res, err := runWorkload(w, params{
				seed: 1, fixture: 1, seconds: 1, scale: 2000, cycles: 1,
				endToEnd: true, layers: true, out: &printer{w: &out},
			})
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			got := map[string]string{}
			for name, v := range res.Metrics {
				got[name] = v.Unit
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s is %v", name, v.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("emitted metrics and units differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}
			var spans []span
			b, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("trace.json: %d spans, %v", len(spans), err)
			}
		})
	}
}

// A falsified expected answer must make the driver report the run as
// incorrect and exit non-zero.
func TestCorruptedAnswerFails(t *testing.T) {
	var out bytes.Buffer
	code := execute(findWorkload("dbp_sp_light"), params{
		seed: 1, fixture: 1, seconds: 1, scale: 2000, cycles: 1,
		endToEnd: true, corrupt: true, out: &printer{w: &out},
	})
	if code == 0 {
		t.Fatalf("exit code 0 with a corrupted expected answer\n%s", out.String())
	}
	res, err := lastLine(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d, want an incorrect run", res.Correct, res.Failed)
	}
}

// The brute-force evaluator must agree with the library on both dataset
// shapes, including a keyword no document holds.
func TestBruteForceAgreesWithLibrary(t *testing.T) {
	for _, name := range []string{"yago_sp", "dbp_sp_light"} {
		in, err := prepare(findWorkload(name), 2000, 7)
		if in != nil {
			defer in.cleanup()
		}
		if err != nil {
			t.Fatal(err)
		}
		ds, err := openDataset(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.checkOracle(ds, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		q := in.pool[0].q
		if got := bruteForce(in.g, q.Loc.X, q.Loc.Y, []string{"no-such-keyword"}, q.K); got != nil {
			t.Errorf("%s: unknown keyword gave %v", name, got)
		}
	}
}
