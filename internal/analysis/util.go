package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// funcInfo pairs a function-like node with its body for uniform
// traversal of declarations and literals.
type funcInfo struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	typ  *ast.FuncType
	body *ast.BlockStmt
}

func (fi funcInfo) name() string {
	if fi.decl != nil {
		return fi.decl.Name.Name
	}
	return "func literal"
}

// allFuncs yields every function declaration and function literal in
// the pass's files. Literals nested in declarations appear after their
// enclosing declaration.
func allFuncs(files []*ast.File) []funcInfo {
	var out []funcInfo
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, funcInfo{decl: fn, typ: fn.Type, body: fn.Body})
				}
			case *ast.FuncLit:
				out = append(out, funcInfo{lit: fn, typ: fn.Type, body: fn.Body})
			}
			return true
		})
	}
	return out
}

// parentMap records each node's syntactic parent within a file.
type parentMap map[ast.Node]ast.Node

func buildParents(files []*ast.File) parentMap {
	pm := make(parentMap)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				pm[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return pm
}

// deref strips pointers from a type.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedName returns "pkgpath.TypeName" for (pointers to) named types,
// or "" otherwise.
func namedName(t types.Type) string {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// calleeOf resolves a call expression to its callee object (a *types.Func
// for functions and methods, possibly nil for builtins and calls
// through function-typed values).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeDesc renders a callee as "pkgpath.Func" for package functions
// or "pkgpath.Type.Method" for methods (pointer receivers stripped).
// Empty for builtins and indirect calls.
func calleeDesc(info *types.Info, call *ast.CallExpr) string {
	fn := calleeOf(info, call)
	if fn == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedName(sig.Recv().Type()); n != "" {
			return n + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// isPkgFunc reports whether the call resolves to the named function of
// the named package (e.g. "time", "Now").
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// chainString renders a selector chain of identifiers ("e.metrics",
// "a.mu") or "" when the expression is not a pure chain. It is the
// approximate identity the lock and nil-guard checks key on: aliasing
// through anything but a plain chain defeats them, by design.
func chainString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := chainString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// exprText renders a short human-readable form of an expression for
// messages: the selector chain when there is one, a placeholder
// otherwise.
func exprText(e ast.Expr) string {
	if s := chainString(e); s != "" {
		return s
	}
	return "expression"
}

// containsString reports whether s equals any of the given full names.
func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// hasSuffixAny reports whether s ends with one of the suffixes.
func hasSuffixAny(s string, suffixes []string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// resultsWithError reports whether the call's result tuple includes an
// error (and how many results it has).
func callErrorResult(info *types.Info, call *ast.CallExpr) (hasErr bool, n int) {
	tv, ok := info.Types[call]
	if !ok {
		return false, 0
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				hasErr = true
			}
		}
		return hasErr, t.Len()
	default:
		if tv.Type != nil && types.Identical(tv.Type, errorType) {
			return true, 1
		}
		return false, 1
	}
}
