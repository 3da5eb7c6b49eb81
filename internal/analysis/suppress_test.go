package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// suppressPkg parses one source file (comments kept) into a Package
// shaped well enough for filterSuppressed, which only consults Fset
// and Files — no type-checking.
func suppressPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "s.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	return &Package{Path: "p", Fset: fset, Files: []*ast.File{f}}
}

func finding(line int, check string) Finding {
	return Finding{Pos: token.Position{Filename: "s.go", Line: line}, Check: check, Msg: "test finding"}
}

func TestFilterSuppressed(t *testing.T) {
	pkg := suppressPkg(t, `package p

var a = 1 //ksplint:ignore locks -- same-line suppression

//ksplint:ignore determinism,obsnil -- line-above suppression
var b = 2

//ksplint:ignore all -- blanket
var c = 3
`)
	pkgs := []*Package{pkg}
	in := []Finding{
		finding(3, "locks"),       // covered, same line
		finding(3, "determinism"), // same line, wrong check: kept
		finding(6, "obsnil"),      // covered, comment on the line above
		finding(9, "ctx"),         // covered by the blanket "all"
		finding(12, "locks"),      // no suppression anywhere near: kept
	}
	kept, unused := filterSuppressed(in, pkgs)
	if len(unused) != 0 {
		t.Errorf("every suppression here holds a finding, yet %d are reported unused", len(unused))
	}
	var keptDesc []string
	for _, f := range kept {
		keptDesc = append(keptDesc, f.Check)
	}
	if got := strings.Join(keptDesc, ","); got != "determinism,locks" {
		t.Errorf("kept = [%s], want [determinism,locks]", got)
	}
}

func TestFilterSuppressedAudit(t *testing.T) {
	pkg := suppressPkg(t, `package p

var a = 1 //ksplint:ignore locks -- holds a real finding

//ksplint:ignore determinism -- drifted off its line, suppresses nothing
var b = 2

var c = 3 //ksplint:ignore lcoks -- typo in the check name
`)
	pkgs := []*Package{pkg}
	in := []Finding{finding(3, "locks")}
	kept, unused := filterSuppressed(in, pkgs)
	if len(kept) != 0 {
		t.Errorf("kept %d findings, want 0 (the one finding is suppressed)", len(kept))
	}
	// Expect: one unused-ignore for the drifted determinism comment,
	// one unknown-check report for "lcoks", and one unused-ignore for
	// the typo'd comment itself (it suppresses nothing either).
	var unknown, drifted, typoUnused bool
	for _, f := range unused {
		if f.Check != "unused-ignore" {
			t.Errorf("audit finding has check %q, want unused-ignore", f.Check)
		}
		switch {
		case strings.Contains(f.Msg, "unknown check"):
			unknown = true
		case f.Pos.Line == 5:
			drifted = true
		case f.Pos.Line == 8:
			typoUnused = true
		}
	}
	if !unknown {
		t.Error("audit missed the unknown check name (typo insurance)")
	}
	if !drifted {
		t.Error("audit missed the suppression that suppresses nothing")
	}
	if !typoUnused {
		t.Error("audit missed that the typo'd suppression is also unused")
	}
	// The used suppression on line 3 must NOT be reported.
	for _, f := range unused {
		if f.Pos.Line == 3 {
			t.Error("audit flagged a suppression that holds a real finding")
		}
	}
}
