package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSet runs every workload `repeat` times, each run in a child process
// of this same binary — one process per workload is how the benchmark
// contract runs it, and it keeps one workload's heap out of the next
// one's heap_mb. It then prints, per workload × end-to-end metric,
// min / median / max and the spread (max − min over the median) against
// the metric's bound, and reports whether the count-type layer metrics
// repeated exactly. A spread beyond its bound, a failed operation or a
// count that moved fails the set.
func runSet(seed, fixture int64, seconds float64, trace, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runs := map[string][]*result{}
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			fmt.Printf("--- run %d of %d: %s\n", r+1, repeat, w.name)
			cmd := exec.Command(self,
				"-workload", w.name,
				"-seed", strconv.FormatInt(seed, 10),
				"-fixture", strconv.FormatInt(fixture, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if _, werr := os.Stdout.Write(out); werr != nil {
				return werr
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res, err := lastLine(out)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			runs[w.name] = append(runs[w.name], res)
		}
	}
	if repeat < 2 {
		return nil
	}

	var bad []string
	fmt.Printf("\n%-16s %-10s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			var vals []float64
			for _, res := range runs[w.name] {
				if v, ok := res.Metrics[d.name]; ok {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) == 0 {
				continue
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			med := median(vals)
			spread := (hi - lo) / med
			verdict := ""
			if spread > d.bound {
				verdict = "  EXCEEDS"
				bad = append(bad, w.name+"/"+d.name)
			}
			fmt.Printf("%-16s %-10s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				w.name, d.name, lo, med, hi, 100*spread, 100*d.bound, verdict)
		}
		first := runs[w.name][0]
		for _, d := range perLayer {
			if d.unit != "count/op" || strings.HasPrefix(d.name, "core.allocs") || strings.HasPrefix(d.name, "shard.") {
				continue // only the single-client Stats counts are exact by construction
			}
			for _, res := range runs[w.name][1:] {
				a, okA := first.Metrics[d.name]
				b, okB := res.Metrics[d.name]
				if okA && okB && a.Value != b.Value {
					bad = append(bad, fmt.Sprintf("%s/%s moved (%v vs %v)", w.name, d.name, a.Value, b.Value))
				}
			}
		}
		for _, res := range runs[w.name] {
			if res.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s: %d failed operations", w.name, res.Failed))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("not repeatable: %s", strings.Join(bad, "; "))
	}
	fmt.Println("every end-to-end spread is within its bound; Stats counts repeated exactly; no failed operations")
	return nil
}

// lastLine decodes the result object a child printed as its last line.
func lastLine(out []byte) (*result, error) {
	out = bytes.TrimRight(out, "\n")
	line := out[bytes.LastIndexByte(out, '\n')+1:]
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}
