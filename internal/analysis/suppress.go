package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Suppression comments have the form
//
//	//ksplint:ignore check1,check2 -- reason
//
// and silence the named checks (or every check, for the name "all") on
// the comment's own line and on the line directly below it — so the
// comment may sit at the end of the flagged line or on its own line
// above it. The reason after "--" is optional but strongly encouraged:
// a suppression without a why is just a bug with a license.
const suppressPrefix = "//ksplint:ignore"

type suppression struct {
	line   int
	pos    token.Position
	checks map[string]bool // nil means all
	names  string          // the raw check list, for audit messages
}

func (s suppression) covers(check string) bool {
	return s.checks == nil || s.checks[check]
}

// fileSuppressions scans one file's comments for suppression markers,
// keyed by line number.
func fileSuppressions(pkg *Package, f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, suppressPrefix)
			if !ok {
				continue
			}
			rest = strings.TrimSpace(rest)
			if i := strings.Index(rest, "--"); i >= 0 {
				rest = strings.TrimSpace(rest[:i])
			} else {
				// Without a "--" the first field is the check list and any
				// trailing words are a bare reason.
				if fields := strings.Fields(rest); len(fields) > 0 {
					rest = fields[0]
				}
			}
			s := suppression{line: pkg.Fset.Position(c.Pos()).Line, pos: pkg.Fset.Position(c.Pos()), names: rest}
			if rest != "" && rest != "all" {
				s.checks = make(map[string]bool)
				for _, name := range strings.Split(rest, ",") {
					if name = strings.TrimSpace(name); name != "" {
						s.checks[name] = true
					}
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// filterSuppressed drops findings covered by a suppression comment in
// their file. It also returns one "unused-ignore" pseudo-finding per
// suppression that dropped nothing: a suppression without a finding is a
// license nobody holds any more — the invariant either got fixed or the
// comment drifted off its line. It likewise flags suppressions naming
// checks that do not exist (typo insurance).
func filterSuppressed(findings []Finding, pkgs []*Package) (kept, unused []Finding) {
	// filename -> suppressions
	byFile := make(map[string][]*suppression)
	var all []*suppression
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			for _, s := range fileSuppressions(pkg, f) {
				byFile[name] = append(byFile[name], &s)
				all = append(all, &s)
			}
		}
	}
	used := make(map[*suppression]bool)
	kept = findings[:0]
	for _, fd := range findings {
		suppressed := false
		for _, s := range byFile[fd.Pos.Filename] {
			if (s.line == fd.Pos.Line || s.line == fd.Pos.Line-1) && s.covers(fd.Check) {
				suppressed = true
				used[s] = true
				// Keep scanning: a second suppression covering the same
				// finding is also "used" — dedup is the author's call.
			}
		}
		if !suppressed {
			kept = append(kept, fd)
		}
	}
	for _, s := range all {
		for name := range s.checks {
			if !isCheck(name) {
				unused = append(unused, Finding{
					Pos:   s.pos,
					Check: "unused-ignore",
					Msg:   fmt.Sprintf("//ksplint:ignore names unknown check %q", name),
				})
			}
		}
		if !used[s] {
			what := s.names
			if what == "" {
				what = "all"
			}
			unused = append(unused, Finding{
				Pos:   s.pos,
				Check: "unused-ignore",
				Msg:   fmt.Sprintf("//ksplint:ignore %s suppresses nothing here; delete it (or re-anchor it to the flagged line)", what),
			})
		}
	}
	return kept, unused
}

// isCheck reports whether name names a check.
func isCheck(name string) bool {
	for _, a := range checks {
		if a.Name == name {
			return true
		}
	}
	return false
}
