package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterminismCheck enforces the paper's exactness contract at the code
// level: functions on result-producing paths (Config.CorePackages) must
// not let a nondeterminism source influence what they compute. Three
// sources are flagged:
//
//   - range over a map, unless the collected output is sorted later in
//     the same function (the sortedFamilies idiom) or the loop only
//     deletes from the map it iterates;
//   - math/rand (any function of math/rand or math/rand/v2);
//   - time.Now, unless its result is consumed purely by time
//     arithmetic — time.Since, Sub, Add, After, Before, Equal, Compare,
//     IsZero — which is how latency stats and deadlines use it. A Now
//     value that escapes into anything else (a struct field, another
//     call, a return) can order results and is reported.
//
// DESIGN.md §11 and §14 argue the top-k is bit-identical across
// screened, reference and sharded evaluation; that argument dies
// silently the first time an iteration order or a clock leaks into
// scoring, which is exactly the regression class this check catches.
var DeterminismCheck = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

// timeArithMethods are the time.Time methods whose result says nothing
// of the wall clock on its own: durations, comparisons, a shifted
// instant. Unix, UnixNano, UnixMicro and UnixMilli are not among them:
// they hand the clock out as an integer, which can then order results.
var timeArithMethods = map[string]bool{
	"Sub": true, "Add": true, "After": true, "Before": true,
	"Equal": true, "Compare": true, "IsZero": true,
}

func runDeterminism(pass *Pass) {
	if !containsString(pass.Config.CorePackages, pass.Pkg.Path()) {
		return
	}
	parents := buildParents(pass.Files)
	for _, fi := range allFuncs(pass.Files) {
		fi := fi
		ast.Inspect(fi.body, func(n ast.Node) bool {
			// Nested functions are visited as their own entries; don't
			// double-report their contents here.
			if lit, ok := n.(*ast.FuncLit); ok && lit != fi.lit {
				return false
			}
			switch x := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, fi, x)
			case *ast.CallExpr:
				checkNondetCall(pass, parents, x)
			}
			return true
		})
	}
}

func checkMapRange(pass *Pass, fi funcInfo, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if mapClearLoop(rng) || mapCopyLoop(pass, rng) || sortedAfter(pass, fi, rng) {
		return
	}
	pass.Reportf(rng.Pos(),
		"range over map %s on a result-producing path has nondeterministic order; sort the collected output (or //ksplint:ignore determinism with a reason)",
		exprText(rng.X))
}

// mapClearLoop recognizes `for k := range m { delete(m, k) }` (and the
// variant that also resets values), whose order cannot matter.
func mapClearLoop(rng *ast.RangeStmt) bool {
	m := chainString(rng.X)
	if m == "" {
		return false
	}
	for _, stmt := range rng.Body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "delete" || len(call.Args) != 2 {
			return false
		}
		if chainString(call.Args[0]) != m {
			return false
		}
	}
	return len(rng.Body.List) > 0
}

// mapCopyLoop recognizes `for k, v := range src { dst[k] = v }` where
// dst is itself a map: copying one map into another is a set operation,
// so iteration order cannot leak into the result.
func mapCopyLoop(pass *Pass, rng *ast.RangeStmt) bool {
	key, _ := rng.Key.(*ast.Ident)
	val, _ := rng.Value.(*ast.Ident)
	if key == nil || val == nil || len(rng.Body.List) == 0 {
		return false
	}
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		ix, ok := ast.Unparen(as.Lhs[0]).(*ast.IndexExpr)
		if !ok {
			return false
		}
		if t := pass.Info.TypeOf(ix.X); t == nil {
			return false
		} else if _, isMap := t.Underlying().(*types.Map); !isMap {
			return false
		}
		ki, ok := ast.Unparen(ix.Index).(*ast.Ident)
		if !ok || ki.Name != key.Name {
			return false
		}
		vi, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident)
		if !ok || vi.Name != val.Name {
			return false
		}
	}
	return true
}

// sortedAfter reports whether a sort call (package sort, or a slices
// Sort* function) appears in the same function after the range loop —
// the collect-then-sort idiom that makes map iteration safe.
func sortedAfter(pass *Pass, fi funcInfo, rng *ast.RangeStmt) bool {
	sorted := false
	ast.Inspect(fi.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeOf(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort":
			sorted = true
		case "slices":
			if len(fn.Name()) >= 4 && fn.Name()[:4] == "Sort" {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

func checkNondetCall(pass *Pass, parents parentMap, call *ast.CallExpr) {
	fn := calleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		pass.Reportf(call.Pos(),
			"math/rand.%s on a result-producing path is a nondeterminism source; thread an explicit seeded source through Options instead",
			fn.Name())
	case "time":
		if fn.Name() == "Now" && !timeArithOnly(pass, parents, call) {
			pass.Reportf(call.Pos(),
				"time.Now result escapes beyond duration/deadline arithmetic on a result-producing path; wall-clock values must not influence result order")
		}
	}
}

// timeArithOnly reports whether the time.Now() result is consumed only
// by time arithmetic: immediately (time.Now().After(d)), or through a
// local variable all of whose uses are time-arithmetic consumers.
func timeArithOnly(pass *Pass, parents parentMap, call *ast.CallExpr) bool {
	switch p := parents[call].(type) {
	case *ast.SelectorExpr:
		// time.Now().Add(d) and friends.
		return timeArithMethods[p.Sel.Name]
	case *ast.CallExpr:
		// time.Since(…) never takes Now directly; Now as an argument to
		// any call hands the clock to arbitrary code.
		return false
	case *ast.AssignStmt:
		// start := time.Now() — every use of start must be arithmetic.
		// Only the simple one-LHS form is recognized.
		if len(p.Rhs) != 1 || p.Rhs[0] != ast.Expr(call) || len(p.Lhs) != 1 {
			return false
		}
		id, ok := p.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			return false
		}
		return allUsesTimeArith(pass, parents, obj)
	}
	return false
}

// allUsesTimeArith scans every use of the variable holding a time.Now
// result and accepts only time-arithmetic consumers: the receiver of an
// arithmetic method (start.Sub(x)), an argument to time.Since, or an
// argument to another time.Time's arithmetic method (deadline.Sub(start)).
func allUsesTimeArith(pass *Pass, parents parentMap, obj types.Object) bool {
	for id, used := range pass.Info.Uses {
		if used != obj {
			continue
		}
		p, _ := parents[id].(ast.Node)
		switch parent := p.(type) {
		case *ast.SelectorExpr:
			// start.Sub(…), start.IsZero(), …
			if parent.X == ast.Expr(id) && timeArithMethods[parent.Sel.Name] {
				continue
			}
			return false
		case *ast.CallExpr:
			if !argOfTimeArith(pass, parent, id) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// argOfTimeArith reports whether id appears as an argument of
// time.Since or of a time-arithmetic method call.
func argOfTimeArith(pass *Pass, call *ast.CallExpr, id *ast.Ident) bool {
	isArg := false
	for _, a := range call.Args {
		if ast.Unparen(a) == ast.Expr(id) {
			isArg = true
		}
	}
	if !isArg {
		return false
	}
	if isPkgFunc(pass.Info, call, "time", "Since") || isPkgFunc(pass.Info, call, "time", "Until") {
		return true
	}
	fn := calleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	return timeArithMethods[fn.Name()]
}
