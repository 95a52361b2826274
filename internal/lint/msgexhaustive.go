package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// MsgExhaustive keeps the two ends of the dist protocol honest: every
// `switch` over remote.MsgType must either handle every declared
// message type or carry a default clause that decides what an
// unhandled frame means. Message types arrived in several rounds
// (MsgPong, MsgSeed, MsgBuild/MsgBuilt) and left in others (the abort
// and aborted messages, the checkpoint and shed messages), and each
// change had to be
// hand-audited against every dispatch switch on the coordinator and the
// worker; a missed arm shows up at runtime as a frame silently dropped
// or a hung round, not a compile error.
var MsgExhaustive = &Analyzer{
	Name: "msgexhaustive",
	Doc: `a switch over remote.MsgType must handle every declared message type or carry a default
New protocol messages are added on one endpoint first; this rule turns
"the other endpoint forgot" from a hung round into a lint finding. A
default clause that rejects or logs unknown frames also satisfies the
rule — the point is that unhandled is a decision, not an accident.`,
	Run: runMsgExhaustive,
}

func runMsgExhaustive(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := info.Types[sw.Tag]
			if !ok {
				return true
			}
			named := namedFrom(tv.Type)
			if named == nil || !isNamedType(tv.Type, "internal/mapreduce/remote", "MsgType") {
				return true
			}
			declared := declaredMsgTypes(named.Obj().Pkg())
			if len(declared) == 0 {
				return true
			}
			covered := map[string]bool{}
			hasDefault := false
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					etv, ok := info.Types[e]
					if !ok || etv.Value == nil {
						continue
					}
					covered[constant.ToInt(etv.Value).ExactString()] = true
				}
			}
			if hasDefault {
				return true
			}
			var missing []string
			for val, name := range declared {
				if !covered[val] {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				pass.Reportf(sw.Pos(), "switch over remote.MsgType has no default and misses %s: an unhandled frame is dropped silently at runtime — add the arm(s) or a default that decides", strings.Join(missing, ", "))
			}
			return true
		})
	}
}

// declaredMsgTypes collects the package-level constants of the MsgType
// type from its defining package, keyed by exact constant value so
// aliases of one value count once (the first name in scope order wins).
func declaredMsgTypes(pkg *types.Package) map[string]string {
	out := map[string]string{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named := namedFrom(c.Type())
		if named == nil || named.Obj().Name() != "MsgType" {
			continue
		}
		key := constant.ToInt(c.Val()).ExactString()
		if _, have := out[key]; !have {
			out[key] = name
		}
	}
	return out
}
