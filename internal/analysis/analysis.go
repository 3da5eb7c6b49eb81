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
	Doc  string
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

	pkg      *Package
	mod      *modFacts
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

// Config carries the project-specific knobs of the checks. The zero
// value disables everything; DefaultConfig returns the settings that
// encode this repository's invariants.
type Config struct {
	// Checks enables a subset by name; nil or empty enables all.
	Checks map[string]bool

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

	// MmapSources are callee descriptions ("path.Type.Method" or
	// "path.Func") whose slice results alias storage the callee owns —
	// zero-copy reads valid only until the owner's Close (mmapfile
	// ranges) or the next call (cache-owned documents). The mmaplife
	// check tracks values derived from them.
	MmapSources []string

	// MmapOwnerPackages are import paths exempt from mmaplife's sinks:
	// they own the backing store, so retaining views is their job.
	MmapOwnerPackages []string

	// MmapBoundaryPackages are import paths whose EXPORTED functions
	// must never return a source-derived slice: they are the public
	// Dataset boundary, past which callers cannot see Close coming.
	MmapBoundaryPackages []string

	// PoolTypes are the pooled-value protocols poolsafe enforces.
	PoolTypes []PoolProtocol

	// HotPathRoots supplements the //ksplint:hotpath directive with
	// callee descriptions that root the allocbound closure.
	HotPathRoots []string
}

// A PoolProtocol describes one recycled type: values of Type go back
// to their pool through the Release method and must not be touched
// afterwards. Idempotent marks protocols whose documented owner guard
// makes a second Release a no-op (double-release is then legal; use
// after release still is not).
type PoolProtocol struct {
	Type       string
	Release    string
	Idempotent bool
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
		MmapSources: []string{
			// Zero-copy view of the mapping; valid until File.Close.
			module + "/internal/mmapfile.File.Range",
		},
		MmapOwnerPackages: []string{
			// The package owns the mapping (it holds it and unmaps it on
			// Close), so retaining views inside its structs is its
			// documented job; mmaplife polices its CONSUMERS.
			module + "/internal/mmapfile",
			// A mapped snapshot's Graph, R-tree, reach labels and α files
			// are views of its mapping (OpenDisk takes one Range of the
			// whole file, and readImage hands views of it to
			// rdf.FromArrays, rtree.FromArrays, reach.FromArrays and
			// alpha.OpenPlaces/OpenNodes, stored in Snapshot.Graph, Tree,
			// Reach, AlphaPlace and AlphaNode), and the Snapshot owns the
			// mapping: Snapshot.Close unmaps it, and its doc ends the
			// views' life there. Only the package is nameable here; no
			// other store code takes a Range view.
			module + "/internal/store",
		},
		MmapBoundaryPackages: []string{module},
		PoolTypes: []PoolProtocol{
			// The α query view: owner-pointer guard makes double-Release
			// a documented no-op, but a released view's dense tables are
			// already being refilled by someone else's LoadQuery.
			{Type: module + "/internal/alpha.QueryView", Release: "Release", Idempotent: true},
		},
	}
}

func (c Config) enabled(name string) bool {
	if len(c.Checks) == 0 {
		return true
	}
	return c.Checks[name]
}

// AllChecks returns every registered analyzer, in stable order.
func AllChecks() []*Analyzer {
	return []*Analyzer{
		AllocBoundCheck,
		CtxCheck,
		DeterminismCheck,
		DroppedErrCheck,
		LeakCheck,
		LocksCheck,
		MetricNameCheck,
		MmapLifeCheck,
		ObsNilCheck,
		PoolSafeCheck,
	}
}

// CheckByName returns the analyzer with the given name, or nil.
func CheckByName(name string) *Analyzer {
	for _, a := range AllChecks() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunChecks runs the enabled analyzers over the loaded packages and
// returns the surviving findings: suppressed ones are dropped, the rest
// sorted by position then check name.
func RunChecks(pkgs []*Package, cfg Config) []Finding {
	findings, _ := runChecks(pkgs, cfg, false)
	return findings
}

// RunChecksAudit is RunChecks plus the suppression audit: the second
// slice holds one "unused-ignore" pseudo-finding per //ksplint:ignore
// comment that suppressed nothing in this run. Meaningful only when
// every check is enabled (cfg.Checks empty): an ignore for a disabled
// check is not stale, just unexercised.
func RunChecksAudit(pkgs []*Package, cfg Config) (findings, unused []Finding) {
	return runChecks(pkgs, cfg, true)
}

// flowChecks are the analyzers that need the module-wide summary table.
var flowChecks = map[string]bool{
	"allocbound": true,
	"leakcheck":  true,
	"mmaplife":   true,
	"poolsafe":   true,
}

func runChecks(pkgs []*Package, cfg Config, audit bool) (findings, unused []Finding) {
	var mod *modFacts
	for _, a := range AllChecks() {
		if cfg.enabled(a.Name) && flowChecks[a.Name] {
			mod = buildModFacts(pkgs, cfg)
			break
		}
	}
	for _, pkg := range pkgs {
		for _, a := range AllChecks() {
			if !cfg.enabled(a.Name) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Config:   cfg,
				pkg:      pkg,
				mod:      mod,
				findings: &findings,
			}
			a.Run(pass)
		}
	}
	findings, unused = filterSuppressed(findings, pkgs, audit)
	sortFindings(findings)
	sortFindings(unused)
	return findings, unused
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
