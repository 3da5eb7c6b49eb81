package analysis

import (
	"go/ast"
	"go/types"
)

// CtxCheck enforces context discipline at the service boundary:
//
//  1. when a function takes a context.Context it must be the first
//     parameter (Go API convention; mixed positions breed mistaken
//     call sites);
//  2. a function that has a ctx parameter must hand that ctx — not a
//     fresh context.Background()/TODO() — to callees that accept one,
//     or cancellation silently stops propagating (the request-context
//     cancellation path of DESIGN.md §9 depends on this). The function
//     literals it contains are held to the same rule unless they take a
//     context of their own;
//  3. inside Config.EntryPackages, an exported function that is not
//     itself ctx-parameterized must not mint context.Background() to
//     call a ctx-taking callee: the entry point should accept a
//     context instead. Package main and tests are exempt — main is
//     where fresh root contexts legitimately come from.
var CtxCheck = &Analyzer{
	Name: "ctx",
	Run:  runCtx,
}

func runCtx(pass *Pass) {
	for _, fi := range allFuncs(pass.Files) {
		ctxName, ctxIndex := ctxParam(pass, fi.typ)
		if ctxIndex > 0 {
			pass.Reportf(fi.typ.Params.Pos(),
				"context.Context must be the first parameter of %s (found at position %d)", fi.name(), ctxIndex+1)
		}
		hasCtx := ctxIndex == 0 && ctxName != ""
		exported := fi.decl != nil && fi.decl.Name.IsExported()
		entryPkg := containsString(pass.Config.EntryPackages, pass.Pkg.Path()) &&
			pass.Pkg.Name() != "main"
		fi := fi
		ast.Inspect(fi.body, func(n ast.Node) bool {
			// A nested literal runs on the enclosing function's context
			// (a per-tile goroutine, a callback) unless it declares one of
			// its own, in which case it is checked as its own function.
			if lit, ok := n.(*ast.FuncLit); ok && lit != fi.lit {
				_, litCtx := ctxParam(pass, lit.Type)
				return litCtx < 0
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !calleeTakesCtx(pass, call) || len(call.Args) == 0 {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			argCall, isCall := arg.(*ast.CallExpr)
			mintsFresh := isCall && (isPkgFunc(pass.Info, argCall, "context", "Background") ||
				isPkgFunc(pass.Info, argCall, "context", "TODO"))
			switch {
			case hasCtx && mintsFresh:
				pass.Reportf(call.Pos(),
					"%s receives a fresh context although %s has a context parameter %q; pass it through so cancellation propagates",
					calleeDesc(pass.Info, call), fi.name(), ctxName)
			case !hasCtx && mintsFresh && exported && entryPkg:
				pass.Reportf(call.Pos(),
					"exported entry point %s mints context.Background() for %s; accept a context.Context first parameter instead",
					fi.name(), calleeDesc(pass.Info, call))
			}
			return true
		})
	}
}

// ctxParam returns the name and parameter index of the context.Context
// parameter, or ("", -1).
func ctxParam(pass *Pass, ft *ast.FuncType) (string, int) {
	if ft.Params == nil {
		return "", -1
	}
	idx := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isCtxType(pass.Info.TypeOf(field.Type)) {
			name := ""
			if len(field.Names) > 0 {
				name = field.Names[0].Name
			}
			return name, idx
		}
		idx += n
	}
	return "", -1
}

func isCtxType(t types.Type) bool {
	return t != nil && namedName(t) == "context.Context"
}

// calleeTakesCtx reports whether the call's callee declares a
// context.Context first parameter.
func calleeTakesCtx(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeOf(pass.Info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	// context.WithCancel/WithTimeout/WithValue legitimately take a parent
	// that may be Background at the root; only flag them under rule 2/3
	// like everything else — except context.Background()/TODO() passed to
	// the context package's own constructors from main, which rule 3
	// already exempts.
	return isCtxType(sig.Params().At(0).Type())
}
