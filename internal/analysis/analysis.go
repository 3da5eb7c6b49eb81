// Package analysis is ksplint's from-scratch static-analysis framework:
// a module-aware package loader on go/parser + go/types, a findings
// model, //ksplint:ignore suppression comments, and the registry of
// checks that encode this repository's coding invariants (DESIGN.md
// §12). It deliberately uses only the standard library — the same rule
// the rest of the engine follows — so the linter builds and runs
// anywhere the repo does, with no module downloads.
//
// The checks are approximations, not proofs: they walk the AST with
// type information but without a control-flow graph, so a construction
// the analysis cannot follow is reported and must either be rewritten
// in the guarded shape or carry a justified //ksplint:ignore comment.
// That trade — occasional explicit suppression in exchange for a
// machine-checked invariant on every commit — is the point.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// An Analyzer is one named check. Run inspects a single type-checked
// package and reports findings through the pass.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// A Pass hands one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Config   Config

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.findings = append(*p.findings, Finding{
		Pos:   p.Fset.Position(pos),
		Check: p.Analyzer.Name,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// Config carries the project-specific knobs of the checks.
// DefaultConfig returns the settings that encode this repository's
// invariants.
type Config struct {
	// CorePackages are the import paths (exact match) whose functions
	// sit on result-producing paths: the determinism check applies only
	// inside them.
	CorePackages []string

	// GuardedTypes are "path.Type" names whose pointer methods must be
	// nil-receiver-guarded, and through which field access requires a
	// preceding nil check (the obs nil-safety invariant).
	GuardedTypes []string

	// EntryPackages are the import paths whose exported functions are
	// service entry points for the context-propagation check.
	EntryPackages []string

	// MetricPrefix is the required metric-name prefix.
	MetricPrefix string

	// HistogramSuffixes are the unit suffixes a histogram name must end
	// with (counters always require "_total").
	HistogramSuffixes []string

	// ErrSafeCalls are callee descriptions whose dropped error results
	// are acceptable: package functions as "path.Func" (e.g.
	// "fmt.Println") and methods as "path.Type.Method" (e.g.
	// "strings.Builder.WriteString"), matched after pointer stripping.
	ErrSafeCalls []string

	// ErrSafeWriters are types (as "path.Type") whose Write methods
	// cannot fail, making fmt.Fprint* into them safe.
	ErrSafeWriters []string
}

// DefaultConfig returns the configuration that encodes this repo's
// invariants for the given module path.
func DefaultConfig(module string) Config {
	return Config{
		CorePackages: []string{
			module,
			module + "/internal/core",
			module + "/internal/obs",
			module + "/internal/server",
		},
		GuardedTypes: []string{
			module + "/internal/obs.Counter",
			module + "/internal/obs.Gauge",
			module + "/internal/obs.Histogram",
			module + "/internal/obs.Trace",
			module + "/internal/obs.Span",
			module + "/internal/obs.SlowLog",
			module + "/internal/core.engineMetrics",
			module + "/internal/server.serverMetrics",
		},
		EntryPackages: []string{
			module,
			module + "/internal/core",
			module + "/internal/server",
		},
		MetricPrefix:      "ksp_",
		HistogramSuffixes: []string{"_seconds", "_bytes"},
		ErrSafeCalls: []string{
			"fmt.Print", "fmt.Printf", "fmt.Println",
			"strings.Builder.Write", "strings.Builder.WriteByte",
			"strings.Builder.WriteRune", "strings.Builder.WriteString",
			"bytes.Buffer.Write", "bytes.Buffer.WriteByte",
			"bytes.Buffer.WriteRune", "bytes.Buffer.WriteString",
			// bufio.Writer errors are sticky: every later write and the
			// final Flush return the first failure, so per-write checks
			// add nothing as long as Flush is checked (which droppederr
			// itself enforces at the Flush site).
			"bufio.Writer.Write", "bufio.Writer.WriteByte",
			"bufio.Writer.WriteRune", "bufio.Writer.WriteString",
		},
		ErrSafeWriters: []string{
			"strings.Builder", "bytes.Buffer", "bufio.Writer",
			// tabwriter buffers like bufio: write errors are sticky and
			// come back from Flush.
			"text/tabwriter.Writer",
			// Writes to an HTTP response fail only when the client is
			// gone; there is no response left to salvage.
			"net/http.ResponseWriter",
		},
	}
}

// checks lists every analyzer, in stable order.
var checks = []*Analyzer{
	CtxCheck,
	DeterminismCheck,
	DroppedErrCheck,
	LocksCheck,
	MetricNameCheck,
	ObsNilCheck,
}

// Run runs every check over the loaded packages. It returns the findings
// no //ksplint:ignore comment suppresses, plus one "unused-ignore"
// finding per suppression that held none, sorted by position then check
// name.
func Run(pkgs []*Package, cfg Config) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range checks {
			runAnalyzer(a, pkg, cfg, &findings)
		}
	}
	kept, unused := filterSuppressed(findings, pkgs)
	findings = append(kept, unused...)
	sortFindings(findings)
	return findings
}

// runAnalyzer applies one analyzer to one package.
func runAnalyzer(a *Analyzer, pkg *Package, cfg Config, findings *[]Finding) {
	a.Run(&Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Config:   cfg,
		findings: findings,
	})
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
