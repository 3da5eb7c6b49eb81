package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ObsNilCheck machine-checks the obs-layer contract (DESIGN.md §10):
// disabling observability means leaving instrument pointers nil, so
// every instrument must stay safe to use through a nil pointer. Two
// rules, both keyed on Config.GuardedTypes:
//
//  1. Every method with a named pointer receiver of a guarded type must
//     begin with a nil-receiver guard (`if x == nil { return … }`), or
//     consist solely of delegation to other methods of guarded types
//     (Counter.Inc → c.Add). Before this check the invariant was held
//     up by one AllocsPerRun test and reviewer memory.
//
//  2. Reading a field through a pointer of a guarded type (for the
//     instrument bundles: e.metrics.queries, m.partial, …) requires a
//     preceding nil check of that pointer — or of a local assigned from
//     it — in the same function. Pointers that provably come from a
//     fresh &T{…} literal in the same function are exempt.
//
// The dominance test is positional (guard before use in source order),
// which is sound for the straight-line guard idioms the codebase uses
// and reports anything cleverer for human review.
var ObsNilCheck = &Analyzer{
	Name: "obsnil",
	Run:  runObsNil,
}

func runObsNil(pass *Pass) {
	guarded := pass.Config.GuardedTypes
	if len(guarded) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recvType := pass.Info.TypeOf(fd.Recv.List[0].Type)
			if recvType == nil || !containsString(guarded, namedName(recvType)) {
				continue
			}
			if _, isPtr := recvType.(*types.Pointer); !isPtr {
				continue // value receivers cannot be nil
			}
			checkMethodGuard(pass, fd)
		}
	}
	checkBundleFieldAccess(pass)
}

// checkMethodGuard enforces rule 1 on one method of a guarded type.
func checkMethodGuard(pass *Pass, fd *ast.FuncDecl) {
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return // receiver unused: trivially nil-safe
	}
	recv := names[0].Name
	if !receiverUsed(fd.Body, recv) {
		return
	}
	if startsWithNilGuard(fd.Body, recv) {
		return
	}
	if delegatesOnly(pass, fd.Body, recv) {
		return
	}
	pass.Reportf(fd.Name.Pos(),
		"method %s on nil-safe type %s must begin with `if %s == nil { return … }` (obs instruments are used through nil pointers when observability is off)",
		fd.Name.Name, exprText(fd.Recv.List[0].Type), recv)
}

func receiverUsed(body *ast.BlockStmt, recv string) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == recv {
			used = true
		}
		return !used
	})
	return used
}

// startsWithNilGuard recognizes a leading `if recv == nil { … return }`
// (or the reversed comparison) whose body terminates.
func startsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil {
		return false
	}
	if !isNilCompare(ifs.Cond, recv, token.EQL) {
		return false
	}
	if len(ifs.Body.List) == 0 {
		return false
	}
	_, ok = ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt)
	return ok
}

// isNilCompare matches `<chain> <op> nil` or `nil <op> <chain>` for the
// given chain text.
func isNilCompare(cond ast.Expr, chain string, op token.Token) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return false
	}
	x, y := be.X, be.Y
	if isNilIdent(x) {
		x, y = y, x
	}
	return isNilIdent(y) && chainString(x) == chain
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// delegatesOnly accepts bodies where every appearance of the receiver
// is as the receiver of a method call on a guarded type — Counter.Inc's
// `c.Add(1)` shape — so nil flows into another guarded method.
func delegatesOnly(pass *Pass, body *ast.BlockStmt, recv string) bool {
	ok := true
	parents := buildParentsStmt(body)
	ast.Inspect(body, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || id.Name != recv {
			return true
		}
		// The receiver must be the X of a selector whose parent is a call
		// and whose selection resolves to a guarded-type method.
		sel, isSel := parents[id].(*ast.SelectorExpr)
		if !isSel || sel.X != ast.Expr(id) {
			ok = false
			return false
		}
		if _, isCall := parents[sel].(*ast.CallExpr); !isCall {
			ok = false
			return false
		}
		s := pass.Info.Selections[sel]
		if s == nil || s.Obj() == nil || !containsString(pass.Config.GuardedTypes, namedName(s.Recv())) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func buildParentsStmt(root ast.Node) parentMap {
	pm := make(parentMap)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
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
	return pm
}

// checkBundleFieldAccess enforces rule 2 over every top-level function
// of the package. Function literals nested inside another function are
// analyzed as part of their enclosing function so they inherit its
// guard and literal-safety facts (a closure capturing a pointer the
// enclosing scope built with &T{…} is as safe as the scope itself).
func checkBundleFieldAccess(pass *Pass) {
	all := allFuncs(pass.Files)
	for _, fi := range all {
		if fi.lit != nil && enclosedByOther(fi, all) {
			continue
		}
		checkBundleInFunc(pass, fi)
	}
}

// enclosedByOther reports whether the literal sits inside another
// function's body (by position).
func enclosedByOther(fi funcInfo, all []funcInfo) bool {
	for _, other := range all {
		if other.body == fi.body || other.body == nil {
			continue
		}
		if other.body.Pos() <= fi.lit.Pos() && fi.lit.End() <= other.body.End() {
			return true
		}
	}
	return false
}

func checkBundleInFunc(pass *Pass, fi funcInfo) {
	type guardFact struct {
		chain string
		pos   token.Pos
	}
	var guards []guardFact         // nil-compared chains, by position
	var safe []guardFact           // chains assigned from &T{…} literals
	aliases := map[string]string{} // local name -> source chain

	guardedChain := func(chain string, pos token.Pos) bool {
		// seen breaks alias cycles: a self-assignment like `s := s` (or a
		// mutual pair) would otherwise loop forever here.
		seen := map[string]bool{}
		for !seen[chain] {
			seen[chain] = true
			for _, g := range guards {
				if g.chain == chain && g.pos < pos {
					return true
				}
			}
			for _, s := range safe {
				if s.chain == chain && s.pos < pos {
					return true
				}
			}
			src, ok := aliases[chain]
			if !ok {
				return false
			}
			chain = src
		}
		return false
	}

	// First sweep: collect guard facts and aliasing.
	ast.Inspect(fi.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
				lhs := chainString(x.Lhs[0])
				if lhs == "" {
					break
				}
				if u, ok := ast.Unparen(x.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
					if _, isLit := u.X.(*ast.CompositeLit); isLit {
						safe = append(safe, guardFact{chain: lhs, pos: x.Pos()})
						break
					}
				}
				if rhs := chainString(x.Rhs[0]); rhs != "" {
					// A field read off an owner already known non-nil
					// (t := s.t after the s guard) yields a safe local:
					// the bundle invariant is that interior instrument
					// pointers are set whenever their owner is.
					if i := strings.LastIndexByte(rhs, '.'); i > 0 && guardedChain(rhs[:i], x.Pos()) {
						safe = append(safe, guardFact{chain: lhs, pos: x.Pos()})
						break
					}
					aliases[lhs] = rhs
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				e := x.X
				if isNilIdent(e) {
					e = x.Y
				}
				if !isNilIdent(e) {
					if c := chainString(e); c != "" {
						guards = append(guards, guardFact{chain: c, pos: x.Pos()})
					}
				}
			}
		}
		return true
	})

	// Second sweep: every field selection through a guarded pointer type
	// must be covered.
	ast.Inspect(fi.body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		recvName := namedName(s.Recv())
		if !containsString(pass.Config.GuardedTypes, recvName) {
			return true
		}
		// Only pointer receivers can be nil.
		if !isPointer(pass, sel.X) {
			return true
		}
		chain := chainString(sel.X)
		if chain != "" && guardedChain(chain, sel.Pos()) {
			return true
		}
		pass.Reportf(sel.Sel.Pos(),
			"field %s read through possibly-nil *%s without a preceding nil check in %s",
			sel.Sel.Name, recvName, fi.name())
		return true
	})
}

func isPointer(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
