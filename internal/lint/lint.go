// Package lint is a stdlib-only static-analysis framework that
// machine-checks the engine's determinism, pooling, and protocol
// invariants. Nine PRs of growth stacked up rules that existed only as
// prose in ARCHITECTURE.md — outputs must be bit-identical across
// memory/spill/dist backends, ReduceFunc and StateReduceFunc slices must not be
// retained, pooled buffers must be checked back in, every MsgType must
// be handled on both protocol endpoints, cliio errors must not be
// dropped — and each of PRs 6–9 shipped a real bug a
// mechanical check would have caught. This package encodes those rules
// as analyzers over go/ast + go/parser + go/types (no golang.org/x/
// tools: the repository is zero-dependency), and cmd/repolint runs them
// over the whole module in CI.
//
// A finding is suppressed by an annotation on the offending line (or
// the line directly above):
//
//	//lint:allow <rule> — <reason>
//
// The reason is mandatory, and a directive that no longer matches a
// finding is itself reported as stale, so suppressions cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. Run inspects a single
// type-checked package and reports findings through the Pass.
type Analyzer struct {
	// Name is the rule identifier printed in brackets and named by
	// //lint:allow directives. Lowercase, no spaces.
	Name string
	// Doc is a short description shown by `repolint -list`. The first
	// line is the summary; later lines elaborate.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
}

// A Pass carries one analyzer's view of one package under analysis.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: where, which rule, and what.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the driver's canonical `file:line: [rule] message`
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Run applies every analyzer to every package and resolves //lint:allow
// directives: suppressed findings are dropped, malformed or stale
// directives become findings of their own. The result is sorted by
// position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg, diags: &raw}
			a.Run(pass)
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var dirs []directive
	for _, pkg := range pkgs {
		dirs = append(dirs, collectDirectives(fset, pkg.Files)...)
	}
	out := applyDirectives(raw, dirs, known)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// ---- shared type/AST helpers used by the analyzers ----

// namedFrom unwraps aliases and generic instantiation down to the
// *types.Named behind t, or nil.
func namedFrom(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Pointer:
			t = tt.Elem()
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind a pointer or an
// instantiation) is the named type pkgPathSuffix.name. The package is
// matched by path suffix so the check holds both for the real module
// path and for test fixtures that re-root a package.
func isNamedType(t types.Type, pkgPathSuffix, name string) bool {
	n := namedFrom(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgPathSuffix || strings.HasSuffix(p, pkgPathSuffix)
}

// calleeObj resolves the object a call expression invokes, through
// parens and selectors. Returns nil for indirect calls and conversions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
	}
	return nil
}

// funcScopes walks every function body in the file — declarations and
// literals — calling fn with the func type and body.
func funcScopes(f *ast.File, fn func(ft *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Type, d.Body)
			}
		case *ast.FuncLit:
			fn(d.Type, d.Body)
		}
		return true
	})
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// returnsError reports whether the signature's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Implements(res.At(res.Len()-1).Type(), errorType)
}
