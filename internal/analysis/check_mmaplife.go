package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MmapLifeCheck tracks slices derived from the configured zero-copy
// sources (Config.MmapSources: mmapfile.File.Range views, valid until
// Close) through each function with the taint engine, and reports the
// escapes that outlive the borrow:
//
//   - stores into struct fields or package-level variables (including
//     element stores into field-rooted containers);
//   - sends over channels;
//   - captures by or arguments to goroutines at the go statement;
//   - returns from exported functions of the boundary packages
//     (Config.MmapBoundaryPackages — the public Dataset API, past
//     which callers cannot see Close coming).
//
// The sanctioned escape is a copy: append([]T(nil), v...), copy into
// fresh storage, or a string conversion all clear the taint. Packages
// in Config.MmapOwnerPackages are exempt — they own the backing file
// and its Close, so retaining views is their job. Taint crosses module
// calls through the bottom-up summary table; interface dispatch and
// function values contribute nothing (the blind spot is documented in
// DESIGN.md §17) and closures are analysed with an untainted
// environment, so a capture is caught at the go site, not inside the
// literal.
var MmapLifeCheck = &Analyzer{
	Name: "mmaplife",
	Doc:  "zero-copy mmap/cache-owned slices must not outlive their borrow (store/send/goroutine/boundary-return escapes)",
	Run:  runMmapLife,
}

func runMmapLife(p *Pass) {
	if p.mod == nil || containsString(p.Config.MmapOwnerPackages, p.Pkg.Path()) {
		return
	}
	for _, fi := range allFuncs(p.Files) {
		ml := &mmapLife{pass: p, fi: fi, te: newTaintEngine(p.pkg, p.mod, fi)}
		ml.run()
	}
}

type mmapLife struct {
	pass *Pass
	fi   funcInfo
	te   *taintEngine
}

func (ml *mmapLife) run() {
	entry := ml.te.run()
	replay(ml.te.g, entry, func(n ast.Node, st chainFacts) {
		switch s := n.(type) {
		case *ast.AssignStmt:
			ml.assignSinks(s, st)
		case *ast.SendStmt:
			if ml.te.taintOf(s.Value, st)&taintBitSource != 0 {
				ml.pass.Reportf(s.Value.Pos(),
					"%s aliases a zero-copy source slice and is sent over a channel; the receiver outlives the borrow — copy it first",
					exprText(s.Value))
			}
		case *ast.GoStmt:
			ml.goSinks(s, st)
		case *ast.ReturnStmt:
			ml.returnSinks(s, st)
		}
		ml.te.transfer(n, st)
	})
}

// assignSinks reports source-tainted values stored where they outlive
// the statement: struct fields (any dotted chain), package-level
// variables, and element stores into field-rooted containers. Element
// stores into plain locals merely poison the local (the transfer's
// job); the escape is reported when THAT container escapes.
func (ml *mmapLife) assignSinks(s *ast.AssignStmt, st chainFacts) {
	taints := ml.te.assignTaints(s.Lhs, s.Rhs, st)
	for i, l := range s.Lhs {
		if i >= len(taints) || taints[i]&taintBitSource == 0 {
			continue
		}
		switch x := ast.Unparen(l).(type) {
		case *ast.IndexExpr:
			if base := chainString(x.X); strings.Contains(base, ".") {
				ml.pass.Reportf(l.Pos(),
					"zero-copy source slice stored into %s, which outlives the borrow; copy before storing", base)
			}
		default:
			chain := chainString(l)
			if chain == "" || chain == "_" {
				continue
			}
			if strings.Contains(chain, ".") {
				ml.pass.Reportf(l.Pos(),
					"zero-copy source slice stored into field %s; it dangles after the owner's Close (or the next cache fill) — copy before storing", chain)
			} else if ml.isPackageLevel(l) {
				ml.pass.Reportf(l.Pos(),
					"zero-copy source slice stored into package variable %s; copy before storing", chain)
			}
		}
	}
}

func (ml *mmapLife) isPackageLevel(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := ml.pass.Info.ObjectOf(id)
	if v, ok := obj.(*types.Var); ok {
		return v.Parent() == ml.pass.Pkg.Scope()
	}
	return false
}

// goSinks reports zero-copy views handed to a goroutine, either as
// call arguments or as free variables of a function literal: the
// goroutine's lifetime is unbounded relative to the owner's Close.
func (ml *mmapLife) goSinks(s *ast.GoStmt, st chainFacts) {
	for _, arg := range s.Call.Args {
		if ml.te.taintOf(arg, st)&taintBitSource != 0 {
			ml.pass.Reportf(arg.Pos(),
				"%s aliases a zero-copy source slice and is passed to a goroutine that may outlive the borrow; copy it first",
				exprText(arg))
		}
	}
	lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	reported := make(map[string]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if st[id.Name]&taintBitSource == 0 || reported[id.Name] {
			return true
		}
		if v, isVar := ml.pass.Info.Uses[id].(*types.Var); !isVar || v.IsField() {
			return true
		}
		reported[id.Name] = true
		ml.pass.Reportf(s.Pos(),
			"goroutine captures %s, which aliases a zero-copy source slice; the goroutine may outlive the borrow — copy before capture", id.Name)
		return true
	})
}

// returnSinks reports source-tainted returns from exported functions
// of the boundary packages: past the public API, callers cannot know
// the slice dies at Close.
func (ml *mmapLife) returnSinks(s *ast.ReturnStmt, st chainFacts) {
	if ml.fi.decl == nil || !ml.fi.decl.Name.IsExported() {
		return
	}
	if !containsString(ml.pass.Config.MmapBoundaryPackages, ml.pass.Pkg.Path()) {
		return
	}
	for _, e := range s.Results {
		if ml.te.taintOf(e, st)&taintBitSource != 0 {
			ml.pass.Reportf(e.Pos(),
				"exported %s returns %s, which aliases a zero-copy source slice; return a copy past the Dataset boundary",
				ml.fi.decl.Name.Name, exprText(e))
		}
	}
}
