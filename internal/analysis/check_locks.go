package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LocksCheck enforces the pipeline's lock discipline (DESIGN.md §9–§10):
//
//   - a sync.Mutex/RWMutex Lock()/RLock() must be released on every
//     return path of the function that took it (defer counts for the
//     whole remainder);
//   - no blocking operation — channel send or receive, select without
//     default, sync.WaitGroup.Wait, sync.Cond.Wait, time.Sleep — may
//     run while a mutex is held, because a blocked holder deadlocks the
//     admission controller and trace paths that take short critical
//     sections on the hot path.
//
// The analysis is an abstract walk over the statement tree, not a real
// CFG: branches fork the held-lock set and rejoin as a union, loop
// bodies are analyzed once, and mutexes are identified by selector
// chain (a.mu). Aliased or handed-off mutexes defeat it — rewrite in a
// recognizable shape or suppress with a reason.
var LocksCheck = &Analyzer{
	Name: "locks",
	Run:  runLocks,
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
	opRLock
	opRUnlock
)

// Holding has two aspects with different release points: an explicit
// Unlock releases both, but a deferred Unlock only satisfies the
// return-path rule — the mutex stays held across any statement that
// runs before the function returns, so blocking operations after
// `defer mu.Unlock()` are still blocking while held.
const (
	heldReturn uint8 = 1 << iota // must be released before each return
	heldBlock                    // held for blocking-operation purposes
)

// lockState is the set of held mutexes, keyed by "chain/kind", with the
// aspects still outstanding for each.
type lockState map[string]uint8

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockState) union(o lockState) {
	for k, v := range o {
		s[k] |= v
	}
}

// drop clears one aspect of a key, removing the key when nothing is
// left outstanding.
func (s lockState) drop(key string, aspect uint8) {
	if v, ok := s[key]; ok {
		if v &^= aspect; v == 0 {
			delete(s, key)
		} else {
			s[key] = v
		}
	}
}

// anyHeld reports whether any key has the aspect outstanding.
func (s lockState) anyHeld(aspect uint8) bool {
	for _, v := range s {
		if v&aspect != 0 {
			return true
		}
	}
	return false
}

func runLocks(pass *Pass) {
	for _, fi := range allFuncs(pass.Files) {
		w := &lockWalker{pass: pass}
		held := make(lockState)
		w.walkBlock(fi.body, held, fi)
		for key, v := range held {
			if v&heldReturn != 0 {
				pass.Reportf(fi.body.End(),
					"%s is still held when %s falls off the end of the function", lockKeyName(key), fi.name())
			}
		}
	}
}

type lockWalker struct {
	pass *Pass
}

// mutexOp classifies a statement-level call as a lock operation on a
// sync mutex and returns the receiver chain.
func (w *lockWalker) mutexOp(call *ast.CallExpr) (lockOp, string) {
	fn := calleeOf(w.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	chain := chainString(sel.X)
	if chain == "" {
		chain = exprText(sel.X)
	}
	switch fn.Name() {
	case "Lock":
		return opLock, chain
	case "Unlock":
		return opUnlock, chain
	case "RLock":
		return opRLock, chain
	case "RUnlock":
		return opRUnlock, chain
	}
	return opNone, ""
}

func lockKey(op lockOp, chain string) string {
	if op == opRLock || op == opRUnlock {
		return chain + "/R"
	}
	return chain + "/W"
}

func lockKeyName(key string) string {
	if len(key) > 2 && key[len(key)-2:] == "/R" {
		return key[:len(key)-2] + " (RLock)"
	}
	if len(key) > 2 && key[len(key)-2:] == "/W" {
		return key[:len(key)-2]
	}
	return key
}

// walkBlock walks stmts updating held in place. It reports returns and
// blocking operations against the current held set. The return value
// reports whether the path diverges (every sub-path returns).
func (w *lockWalker) walkBlock(block *ast.BlockStmt, held lockState, fi funcInfo) bool {
	if block == nil {
		return false
	}
	return w.walkStmts(block.List, held, fi)
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt, held lockState, fi funcInfo) bool {
	for _, stmt := range stmts {
		if w.walkStmt(stmt, held, fi) {
			return true
		}
	}
	return false
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held lockState, fi funcInfo) (diverges bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			op, chain := w.mutexOp(call)
			switch op {
			case opLock, opRLock:
				w.checkExprBlocking(s.X, held, fi, true)
				held[lockKey(op, chain)] = heldReturn | heldBlock
				return false
			case opUnlock:
				delete(held, lockKey(opLock, chain))
				return false
			case opRUnlock:
				delete(held, lockKey(opRLock, chain))
				return false
			}
		}
		w.checkExprBlocking(s.X, held, fi, false)
	case *ast.DeferStmt:
		// A deferred Unlock releases for the entire remainder; a deferred
		// closure releases whatever it unlocks.
		if op, chain := w.mutexOp(s.Call); op == opUnlock || op == opRUnlock {
			if op == opUnlock {
				held.drop(lockKey(opLock, chain), heldReturn)
			} else {
				held.drop(lockKey(opRLock, chain), heldReturn)
			}
			return false
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if op, chain := w.mutexOp(call); op == opUnlock {
						held.drop(lockKey(opLock, chain), heldReturn)
					} else if op == opRUnlock {
						held.drop(lockKey(opRLock, chain), heldReturn)
					}
				}
				return true
			})
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExprBlocking(r, held, fi, false)
		}
		for key, v := range held {
			if v&heldReturn != 0 {
				w.pass.Reportf(s.Pos(),
					"return while %s is held: no Unlock on this path in %s", lockKeyName(key), fi.name())
			}
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto end this linear path; the loop analysis is
		// approximate anyway.
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held, fi)
		}
		w.checkExprBlocking(s.Cond, held, fi, false)
		thenHeld := held.clone()
		thenDiv := w.walkBlock(s.Body, thenHeld, fi)
		elseHeld := held.clone()
		elseDiv := false
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseDiv = w.walkBlock(e, elseHeld, fi)
		case *ast.IfStmt:
			elseDiv = w.walkStmt(e, elseHeld, fi)
		}
		// Rejoin: keep the states of paths that fall through.
		switch {
		case thenDiv && elseDiv:
			return true
		case thenDiv:
			replace(held, elseHeld)
		case elseDiv:
			replace(held, thenHeld)
		default:
			replace(held, thenHeld)
			held.union(elseHeld)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held, fi)
		}
		if s.Cond != nil {
			w.checkExprBlocking(s.Cond, held, fi, false)
		}
		body := held.clone()
		w.walkBlock(s.Body, body, fi)
		// Loop effects on the held set are ignored: a body that locks and
		// unlocks per iteration nets to zero, and one that leaks is
		// reported at its own returns or at function end.
	case *ast.RangeStmt:
		body := held.clone()
		w.walkBlock(s.Body, body, fi)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var bodyList []ast.Stmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			if sw.Init != nil {
				w.walkStmt(sw.Init, held, fi)
			}
			bodyList = sw.Body.List
		} else {
			ts := s.(*ast.TypeSwitchStmt)
			bodyList = ts.Body.List
		}
		allDiv := len(bodyList) > 0
		out := make(lockState)
		for _, cc := range bodyList {
			clause := cc.(*ast.CaseClause)
			ch := held.clone()
			if !w.walkStmts(clause.Body, ch, fi) {
				allDiv = false
				out.union(ch)
			}
		}
		if allDiv && hasDefaultCase(bodyList) {
			return true
		}
		if len(out) > 0 || len(bodyList) > 0 {
			held.union(out)
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			if comm := cc.(*ast.CommClause); comm.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			for key, v := range held {
				if v&heldBlock != 0 {
					w.pass.Reportf(s.Pos(),
						"blocking select while %s is held in %s", lockKeyName(key), fi.name())
				}
			}
		}
		allDiv := len(s.Body.List) > 0
		out := make(lockState)
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			ch := held.clone()
			if !w.walkStmts(comm.Body, ch, fi) {
				allDiv = false
				out.union(ch)
			}
		}
		if allDiv {
			return true
		}
		replace(held, out)
	case *ast.SendStmt:
		for key, v := range held {
			if v&heldBlock != 0 {
				w.pass.Reportf(s.Pos(),
					"channel send while %s is held in %s", lockKeyName(key), fi.name())
			}
		}
	case *ast.BlockStmt:
		return w.walkBlock(s, held, fi)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held, fi)
	case *ast.GoStmt:
		// The spawned goroutine runs with its own empty lock set; it is
		// analyzed when allFuncs reaches its literal.
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.checkExprBlocking(r, held, fi, false)
		}
	case *ast.DeclStmt:
		// var declarations may carry initializer expressions.
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExprBlocking(v, held, fi, false)
					}
				}
			}
		}
	}
	return false
}

func replace(dst, src lockState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func hasDefaultCase(clauses []ast.Stmt) bool {
	for _, cc := range clauses {
		if c, ok := cc.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

// checkExprBlocking reports blocking operations inside an expression
// evaluated while locks are held: channel receives and calls to
// WaitGroup.Wait / Cond.Wait / time.Sleep. Function literals inside the
// expression are skipped (they run later, on their own goroutine or
// call). When skipSelf is set the outermost call itself is exempt (it
// is the Lock being classified).
func (w *lockWalker) checkExprBlocking(e ast.Expr, held lockState, fi funcInfo, skipSelf bool) {
	if e == nil || !held.anyHeld(heldBlock) {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				for key, v := range held {
					if v&heldBlock != 0 {
						w.pass.Reportf(x.Pos(),
							"channel receive while %s is held in %s", lockKeyName(key), fi.name())
					}
				}
			}
		case *ast.CallExpr:
			if skipSelf && n == ast.Node(e) {
				return true
			}
			if blockingCall(w.pass.Info, x) {
				for key, v := range held {
					if v&heldBlock != 0 {
						w.pass.Reportf(x.Pos(),
							"%s while %s is held in %s", calleeDesc(w.pass.Info, x), lockKeyName(key), fi.name())
					}
				}
			}
		}
		return true
	})
}

func blockingCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sync":
		if fn.Name() != "Wait" {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return false
		}
		n := namedName(sig.Recv().Type())
		return n == "sync.WaitGroup" || n == "sync.Cond"
	case "time":
		return fn.Name() == "Sleep"
	}
	return false
}
