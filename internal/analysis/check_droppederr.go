package analysis

import (
	"go/ast"
	"go/types"
)

// DroppedErrCheck flags error results that vanish: a call whose result
// tuple includes an error used as a bare statement (including deferred
// and spawned calls), or an error assigned to the blank identifier.
// Unlike errcheck's default, `_ =` does not silence the check — an
// intentionally dropped error carries a //ksplint:ignore droppederr
// comment with the reason, so the justification is reviewable where
// the drop happens.
//
// Config carves out the calls that cannot fail or whose failure has no
// consumer: ErrSafeCalls (fmt.Println and the strings.Builder family)
// and fmt.Fprint* into ErrSafeWriters.
var DroppedErrCheck = &Analyzer{
	Name: "droppederr",
	Run:  runDroppedErr,
}

func runDroppedErr(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					reportDropped(pass, call, "")
				}
			case *ast.DeferStmt:
				reportDropped(pass, s.Call, "deferred ")
			case *ast.GoStmt:
				reportDropped(pass, s.Call, "spawned ")
			case *ast.AssignStmt:
				checkBlankedErr(pass, s)
			}
			return true
		})
	}
}

// reportDropped flags a statement-position call with an error result.
func reportDropped(pass *Pass, call *ast.CallExpr, kind string) {
	hasErr, _ := callErrorResult(pass.Info, call)
	if !hasErr || errSafe(pass, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"%serror result of %s is dropped; handle it or add //ksplint:ignore droppederr with the reason",
		kind, calleeLabel(pass, call))
}

// checkBlankedErr flags `_`-assigned error results: both `_ = f()` and
// the tuple forms `v, _ := g()` where the blanked position is an error.
func checkBlankedErr(pass *Pass, s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// v, _ := g(): match LHS positions against the result tuple.
		call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if !ok || errSafe(pass, call) {
			return
		}
		tv, ok := pass.Info.Types[call]
		if !ok {
			return
		}
		tuple, ok := tv.Type.(*types.Tuple)
		if !ok || tuple.Len() != len(s.Lhs) {
			return
		}
		for i, lhs := range s.Lhs {
			if isBlank(lhs) && types.Identical(tuple.At(i).Type(), errorType) {
				pass.Reportf(s.Pos(),
					"error result of %s is assigned to _; handle it or add //ksplint:ignore droppederr with the reason",
					calleeLabel(pass, call))
			}
		}
		return
	}
	// Parallel assignment: _ = expr per position.
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		if !isBlank(lhs) {
			continue
		}
		call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr)
		if !ok || errSafe(pass, call) {
			continue
		}
		if t := pass.Info.TypeOf(s.Rhs[i]); t != nil && types.Identical(t, errorType) {
			pass.Reportf(s.Pos(),
				"error result of %s is assigned to _; handle it or add //ksplint:ignore droppederr with the reason",
				calleeLabel(pass, call))
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func calleeLabel(pass *Pass, call *ast.CallExpr) string {
	if d := calleeDesc(pass.Info, call); d != "" {
		return d
	}
	return "call"
}

// errSafe consults the configured safelists.
func errSafe(pass *Pass, call *ast.CallExpr) bool {
	desc := calleeDesc(pass.Info, call)
	if desc != "" && containsString(pass.Config.ErrSafeCalls, desc) {
		return true
	}
	// fmt.Fprint* into writers that cannot fail.
	fn := calleeOf(pass.Info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		len(fn.Name()) >= 6 && fn.Name()[:6] == "Fprint" && len(call.Args) > 0 {
		if t := pass.Info.TypeOf(call.Args[0]); t != nil {
			if containsString(pass.Config.ErrSafeWriters, namedName(t)) {
				return true
			}
		}
		// os.Stdout / os.Stderr by name: diagnostics to the process
		// streams follow the fmt.Println convention.
		if c := chainString(call.Args[0]); c == "os.Stdout" || c == "os.Stderr" {
			return true
		}
	}
	return false
}
