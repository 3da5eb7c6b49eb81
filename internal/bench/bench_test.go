package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ksp/internal/core"
)

// smallSuite keeps the experiment tests quick.
func smallSuite() *Suite {
	return NewSuite(1500, 3, 42, io.Discard)
}

func TestAllExperimentsProduceReports(t *testing.T) {
	s := smallSuite()
	for _, id := range ExperimentIDs() {
		reports, err := s.Experiment(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(reports) == 0 {
			t.Fatalf("%s: no reports", id)
		}
		for _, r := range reports {
			if len(r.Rows) == 0 {
				t.Errorf("%s: report %q has no rows", id, r.Title)
			}
			for _, row := range r.Rows {
				if len(row) != len(r.Header) {
					t.Errorf("%s: row width %d != header width %d", id, len(row), len(r.Header))
				}
			}
		}
	}
}

func TestRunAllPrints(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(1200, 2, 7, &buf)
	if err := s.Run("table4"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "table4") || !strings.Contains(out, "DBpedia-like") {
		t.Errorf("output missing expected content:\n%s", out)
	}
}

func TestCSVExport(t *testing.T) {
	s := smallSuite()
	reports, err := s.Experiment("table4")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	names, err := SaveCSVs(dir, reports)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(reports) {
		t.Fatalf("wrote %d files for %d reports", len(names), len(reports))
	}
	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(reports[0].Rows)+1 {
		t.Fatalf("csv has %d lines, want %d", len(lines), len(reports[0].Rows)+1)
	}
	if !strings.HasPrefix(lines[0], "Data,") {
		t.Errorf("csv header = %q", lines[0])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := smallSuite()
	if err := s.Run("fig99"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// The headline result (Figures 3/4): on aggregate SP must beat BSP by a
// wide margin and SPP must not exceed BSP's TQSP computations.
func TestHeadlinePruningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs a moderate dataset")
	}
	var buf bytes.Buffer
	s := NewSuite(4000, 5, 11, &buf)
	d := s.Data(DBpediaLike)
	qs := d.workload(classO, s.Queries, defaultM, defaultK)
	mBSP, err := s.runWorkload(d.base, core.AlgoBSP, qs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mSPP, err := s.runWorkload(d.base, core.AlgoSPP, qs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mSP, err := s.runWorkload(d.base, core.AlgoSP, qs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mSP.TQSP > mSPP.TQSP {
		t.Errorf("SP TQSP computations (%v) exceed SPP (%v)", mSP.TQSP, mSPP.TQSP)
	}
	if mSP.NodeAccess > mBSP.NodeAccess {
		t.Errorf("SP node accesses (%v) exceed BSP (%v)", mSP.NodeAccess, mBSP.NodeAccess)
	}
	if mSP.total() > mBSP.total() {
		t.Errorf("SP runtime (%v) exceeds BSP (%v)", mSP.total(), mBSP.total())
	}
}
