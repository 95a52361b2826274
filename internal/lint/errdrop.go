package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop bans discarding the error results that the repository's
// durability story depends on. PR 5's bugfix round found every CLI
// silently swallowing output-write errors (a full disk produced a
// truncated graph and exit 0) and funneled them through internal/cliio,
// whose Close is the only proof the bytes landed. This rule flags a
// call whose error is discarded — an expression statement, a `defer`,
// a `go`, or an explicit blank assignment — when the callee is
// anything exported by internal/cliio (Output.Close/Write/CloseInto are
// how CLI bytes get checked).
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc: `do not discard errors from cliio writers
A dropped Close/Write error is a run that claims success with bytes
missing: truncated CLI output (exit 0 on ENOSPC). Propagate it, or
suppress with an explicit reason.`,
	Run: runErrDrop,
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(nn.X).(*ast.CallExpr); ok {
					checkDroppedCall(pass, call, "call discards")
				}
			case *ast.DeferStmt:
				checkDroppedCall(pass, nn.Call, "defer discards")
			case *ast.GoStmt:
				checkDroppedCall(pass, nn.Call, "go statement discards")
			case *ast.AssignStmt:
				// x, _ = f() / _ = f(): flag when a blank identifier
				// lines up with the error result of a guarded callee.
				checkBlankAssign(pass, nn)
			}
			return true
		})
	}
}

// guardedCallee reports whether the call's target is one whose error
// the repository has decided must never be dropped, and a short label
// for the finding.
func guardedCallee(pass *Pass, call *ast.CallExpr) (string, bool) {
	obj := calleeObj(pass.Pkg.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return "", false
	}
	if pkg := fn.Pkg(); pkg != nil && strings.HasSuffix(pkg.Path(), "internal/cliio") {
		return "cliio." + callLabel(fn), true
	}
	return "", false
}

// callLabel renders Recv.Name or Name for the finding text.
func callLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedFrom(sig.Recv().Type()); named != nil {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

func checkDroppedCall(pass *Pass, call *ast.CallExpr, how string) {
	if label, ok := guardedCallee(pass, call); ok {
		pass.Reportf(call.Pos(), "%s the error from %s: this error is the only proof the bytes landed (see internal/cliio) — propagate it", how, label)
	}
}

func checkBlankAssign(pass *Pass, as *ast.AssignStmt) {
	// Single call on the RHS feeding all LHS slots, or 1:1 assignment.
	if len(as.Rhs) == 1 && len(as.Lhs) >= 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		label, ok := guardedCallee(pass, call)
		if !ok {
			return
		}
		// The error is the last result; it lines up with the last LHS.
		last, ok := ast.Unparen(as.Lhs[len(as.Lhs)-1]).(*ast.Ident)
		if ok && last.Name == "_" {
			pass.Reportf(as.Pos(), "blank assignment discards the error from %s: this error is the only proof the bytes landed — propagate it (or //lint:allow errdrop with the reason it cannot matter here)", label)
		}
		return
	}
	for i, rhs := range as.Rhs {
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		label, ok := guardedCallee(pass, call)
		if !ok {
			continue
		}
		if id, isID := ast.Unparen(as.Lhs[i]).(*ast.Ident); isID && id.Name == "_" {
			pass.Reportf(as.Pos(), "blank assignment discards the error from %s: this error is the only proof the bytes landed — propagate it", label)
		}
	}
}
