package analysis

import (
	"sort"
	"strings"
	"testing"
)

// runGolden loads one testdata package, runs a single check over it
// with a config aimed at that package, drops the findings its
// //ksplint:ignore comments suppress, and compares the rest against the
// `// want <check>` annotations in the source. Both directions are
// errors: a missing finding and an unannounced one.
func runGolden(t *testing.T, dir string, a *Analyzer, mutate func(cfg *Config, pkgPath string)) {
	t.Helper()
	pkgs, l, err := LoadModule(".", []string{"./internal/analysis/testdata/src/" + dir}, nil)
	if err != nil {
		t.Fatalf("loading testdata/%s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	cfg := DefaultConfig(l.ModulePath)
	if mutate != nil {
		mutate(&cfg, pkg.Path)
	}
	var findings []Finding
	runAnalyzer(a, pkg, cfg, &findings)
	findings, _ = filterSuppressed(findings, pkgs)

	wants := map[int][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, name := range strings.Split(strings.Fields(rest)[0], ",") {
					wants[line] = append(wants[line], name)
				}
			}
		}
	}
	got := map[int][]string{}
	for _, fd := range findings {
		got[fd.Pos.Line] = append(got[fd.Pos.Line], fd.Check)
	}
	lines := map[int]bool{}
	for l := range wants {
		lines[l] = true
	}
	for l := range got {
		lines[l] = true
	}
	for l := range lines {
		w, g := append([]string(nil), wants[l]...), append([]string(nil), got[l]...)
		sort.Strings(w)
		sort.Strings(g)
		if strings.Join(w, ",") != strings.Join(g, ",") {
			t.Errorf("%s line %d: want findings [%s], got [%s]",
				dir, l, strings.Join(w, " "), strings.Join(g, " "))
		}
	}
	if t.Failed() {
		for _, fd := range findings {
			t.Logf("finding: %s", fd)
		}
	}
}

func TestGoldenDeterminism(t *testing.T) {
	runGolden(t, "determinism", DeterminismCheck, func(cfg *Config, pkgPath string) {
		cfg.CorePackages = []string{pkgPath}
	})
}

func TestGoldenObsNil(t *testing.T) {
	runGolden(t, "obsnil", ObsNilCheck, func(cfg *Config, pkgPath string) {
		cfg.GuardedTypes = []string{pkgPath + ".Counter", pkgPath + ".bundle", pkgPath + ".inner"}
	})
}

func TestGoldenLocks(t *testing.T) {
	runGolden(t, "locks", LocksCheck, nil)
}

func TestGoldenCtx(t *testing.T) {
	runGolden(t, "ctxcheck", CtxCheck, func(cfg *Config, pkgPath string) {
		cfg.EntryPackages = []string{pkgPath}
	})
}

func TestGoldenDroppedErr(t *testing.T) {
	runGolden(t, "droppederr", DroppedErrCheck, nil)
}

func TestGoldenMetricName(t *testing.T) {
	runGolden(t, "metricname", MetricNameCheck, nil)
}
