package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolPair enforces the check-out/check-in discipline around the
// sync.Pool instances the hot paths lean on (frameScratchPool and the
// flate reader/writer pools from PR 8, core's edgeStampPool): a
// function that checks a buffer out of a package-level sync.Pool must
// check it back in on every return path, or hand ownership away
// explicitly (return the value, store it into a struct, pass it to a
// callee). A leaked check-out silently degrades the pool to plain
// allocation — the regression the TestAllocGuard* pins catch, but
// flagged at the call site without running a benchmark.
//
// Wrappers are discovered, not configured: a function that returns the
// value it checks out is a check-out wrapper for that pool
// (getFrameScratch), and a function that only Puts is a check-in
// wrapper (putFrameScratch). Call sites of either count the same as
// direct Get/Put.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc: `every sync.Pool check-out needs a check-in on every return path (or explicit ownership transfer)
A missed Put turns the pool into plain allocation under exactly the
load the pool exists for. Prefer a deferred put; when the check-in must
be conditional, transfer ownership by returning or storing the value,
which the rule treats as a hand-off.`,
	Run: runPoolPair,
}

// poolFacts is what one package teaches us about its pools.
type poolFacts struct {
	// pools holds the package-level sync.Pool variables.
	pools map[types.Object]bool
	// getWrappers maps a function object to the pool it checks out of
	// and returns; callers of the wrapper own the value.
	getWrappers map[types.Object]types.Object
	// putWrappers maps a function object to the pool it checks into.
	putWrappers map[types.Object]types.Object
}

func runPoolPair(pass *Pass) {
	facts := gatherPoolFacts(pass)
	if len(facts.pools) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		funcScopes(f, func(_ *ast.FuncType, body *ast.BlockStmt) {
			checkPoolUse(pass, facts, body)
		})
	}
}

// directPoolCall resolves call as a direct <poolvar>.<method>() on a
// known package-level pool.
func directPoolCall(info *types.Info, facts *poolFacts, call *ast.CallExpr, method string) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil && facts.pools[obj] {
		return obj
	}
	return nil
}

// gatherPoolFacts finds the package's sync.Pool variables and their
// get/put wrapper functions.
func gatherPoolFacts(pass *Pass) *poolFacts {
	info := pass.Pkg.Info
	facts := &poolFacts{
		pools:       map[types.Object]bool{},
		getWrappers: map[types.Object]types.Object{},
		putWrappers: map[types.Object]types.Object{},
	}
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.Var)
		if !ok {
			continue
		}
		if isNamedType(obj.Type(), "sync", "Pool") {
			facts.pools[obj] = true
		}
	}
	if len(facts.pools) == 0 {
		return facts
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fobj := info.Defs[fd.Name]
			if fobj == nil {
				continue
			}
			var gets, puts, returnedGets []types.Object
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch nn := n.(type) {
				case *ast.ReturnStmt:
					for _, res := range nn.Results {
						ast.Inspect(res, func(m ast.Node) bool {
							if call, ok := m.(*ast.CallExpr); ok {
								if p := directPoolCall(info, facts, call, "Get"); p != nil {
									returnedGets = append(returnedGets, p)
								}
							}
							return true
						})
					}
				case *ast.CallExpr:
					if p := directPoolCall(info, facts, nn, "Get"); p != nil {
						gets = append(gets, p)
					}
					if p := directPoolCall(info, facts, nn, "Put"); p != nil {
						puts = append(puts, p)
					}
				}
				return true
			})
			if len(gets) == 1 && len(puts) == 0 && len(returnedGets) == 1 {
				facts.getWrappers[fobj] = gets[0]
			}
			if len(puts) == 1 && len(gets) == 0 {
				facts.putWrappers[fobj] = puts[0]
			}
		}
	}
	return facts
}

// checkPoolUse flags unbalanced pool use in one function scope.
func checkPoolUse(pass *Pass, facts *poolFacts, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// poolFor resolves a call to the pool it checks out of / into,
	// through direct method calls or the package's wrappers.
	poolFor := func(call *ast.CallExpr, method string, wrappers map[types.Object]types.Object) types.Object {
		if p := directPoolCall(info, facts, call, method); p != nil {
			return p
		}
		if obj := calleeObj(info, call); obj != nil {
			return wrappers[obj]
		}
		return nil
	}

	// One walk, excluding nested function literals (their own scopes),
	// building a parent map plus the node lists we classify below.
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	var getCalls, putCalls []*ast.CallExpr
	var returns []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		switch nn := n.(type) {
		case *ast.CallExpr:
			if poolFor(nn, "Get", facts.getWrappers) != nil {
				getCalls = append(getCalls, nn)
			}
			if poolFor(nn, "Put", facts.putWrappers) != nil {
				putCalls = append(putCalls, nn)
			}
		case *ast.ReturnStmt:
			returns = append(returns, nn)
		}
		return true
	})
	if len(getCalls) == 0 {
		return
	}

	type usage struct {
		firstGet token.Pos
		puts     []*ast.CallExpr
		deferPut bool
	}
	use := map[types.Object]*usage{}

	// Classify each check-out by walking up the parent chain: reaching
	// a return hands the value to the caller; assignment into a field/
	// index/deref hands it to the containing object; argument position
	// in another call hands it to the callee. Anything else is a local
	// check-out this function must balance.
	for _, g := range getCalls {
		pool := poolFor(g, "Get", facts.getWrappers)
		escapes := false
		var n ast.Node = g
	walkUp:
		for {
			p := parents[n]
			if p == nil {
				break
			}
			switch pp := p.(type) {
			case *ast.ReturnStmt:
				escapes = true
				break walkUp
			case *ast.AssignStmt:
				if len(pp.Lhs) == len(pp.Rhs) {
					for i, rhs := range pp.Rhs {
						if rhs != n {
							continue
						}
						switch ast.Unparen(pp.Lhs[i]).(type) {
						case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
							escapes = true
						}
					}
				}
				break walkUp
			case *ast.CallExpr:
				// g is an argument of another call (not a put — puts
				// are counted, not escapes): ownership handed to the
				// callee.
				if poolFor(pp, "Put", facts.putWrappers) == nil {
					escapes = true
				}
				break walkUp
			case *ast.ExprStmt, *ast.BlockStmt:
				break walkUp
			default:
				n = p // parens, type asserts, value specs, ...
			}
		}
		if escapes {
			continue
		}
		u := use[pool]
		if u == nil {
			u = &usage{firstGet: g.Pos()}
			use[pool] = u
		} else if g.Pos() < u.firstGet {
			u.firstGet = g.Pos()
		}
	}
	if len(use) == 0 {
		return
	}
	for _, p := range putCalls {
		pool := poolFor(p, "Put", facts.putWrappers)
		u := use[pool]
		if u == nil {
			continue
		}
		u.puts = append(u.puts, p)
		if _, ok := parents[p].(*ast.DeferStmt); ok {
			u.deferPut = true
		}
	}

	// enclosingBlock finds the nearest BlockStmt ancestor of n.
	enclosingBlock := func(n ast.Node) ast.Node {
		for p := parents[n]; p != nil; p = parents[p] {
			if _, ok := p.(*ast.BlockStmt); ok {
				return p
			}
		}
		return body
	}

	for pool, u := range use {
		name := pool.Name()
		if len(u.puts) == 0 {
			pass.Reportf(u.firstGet, "checked out of %s but never checked back in (no Put on any path): the pool degrades to plain allocation — add a check-in, prefer defer", name)
			continue
		}
		if u.deferPut {
			continue // a deferred put covers every return path
		}
		// No defer: every return after the check-out must be preceded
		// by a check-in that lexically dominates it — a put earlier in
		// the same block or in an enclosing block. This accepts the
		// early-return idiom (put inside the `if` that returns, final
		// put at the outer level) and flags the `if err { return }`
		// with no put inside.
		for _, r := range returns {
			if r.Pos() <= u.firstGet {
				continue
			}
			ancestors := map[ast.Node]bool{}
			for p := ast.Node(r); p != nil; p = parents[p] {
				ancestors[p] = true
			}
			covered := false
			for _, p := range u.puts {
				if p.End() <= r.Pos() && ancestors[enclosingBlock(p)] {
					covered = true
					break
				}
			}
			if !covered {
				pass.Reportf(r.Pos(), "return leaks the buffer checked out of %s at line %d: no check-in on this path — put before returning, or move the check-in to a defer", name, pass.Fset.Position(u.firstGet).Line)
			}
		}
	}
}
