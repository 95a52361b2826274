package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolPair enforces the check-out/check-in discipline around the
// sync.Pool instances the hot paths lean on (the engine's
// frameScratchPool and pairDictPool, core's edgeMarkPool, simjoin's
// seenPool and weightPool): a
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
//
// The engine's own free lists fall under the same rule by their naming
// convention: two methods get<X> and put<X> of one named type are the
// check-out and the check-in of that type's <X> buffers (roundArena's
// getKeys/putKeys, getI32/putI32, …; pairCodec's getRunEnc/putRunEnc).
// Round-lifetime buffers travel further than a pooled scratch does, so
// a check-out held in a local variable also counts as handed off when
// the variable is later returned, stored into a struct, field or
// element, or captured in a composite literal.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc: `every sync.Pool or get<X>/put<X> free-list check-out needs a check-in on every return path (or explicit ownership transfer)
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
	// names overrides a pool's display name (a get/put method pair is
	// keyed by its put method; it reads better as "roundArena.Keys").
	names map[types.Object]string
}

func (f *poolFacts) name(pool types.Object) string {
	if n, ok := f.names[pool]; ok {
		return n
	}
	return pool.Name()
}

func runPoolPair(pass *Pass) {
	facts := gatherPoolFacts(pass)
	if len(facts.pools) == 0 && len(facts.getWrappers) == 0 {
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
		names:       map[types.Object]string{},
	}
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Var:
			if isNamedType(obj.Type(), "sync", "Pool") {
				facts.pools[obj] = true
			}
		case *types.TypeName:
			// get<X>/put<X> method pairs: the pair's identity is its
			// put method.
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			puts := map[string]*types.Func{}
			for i := 0; i < named.NumMethods(); i++ {
				if class, ok := strings.CutPrefix(named.Method(i).Name(), "put"); ok && class != "" {
					puts[class] = named.Method(i)
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				get := named.Method(i)
				class, ok := strings.CutPrefix(get.Name(), "get")
				if put := puts[class]; ok && put != nil {
					facts.getWrappers[get] = put
					facts.putWrappers[put] = put
					facts.names[put] = obj.Name() + "." + class
				}
			}
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
		obj := calleeObj(info, call)
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a method of an instantiated generic type
		}
		if obj != nil {
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
	uses := map[types.Object][]*ast.Ident{}
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
		case *ast.Ident:
			if obj := info.Uses[nn]; obj != nil {
				uses[obj] = append(uses[obj], nn)
			}
		}
		return true
	})
	if len(getCalls) == 0 {
		return
	}

	// storedAway reports whether the expression at n ends up somewhere
	// that outlives the statement: in a return, in a composite literal,
	// or on the right of an assignment into a field, element or deref.
	storedAway := func(n ast.Node) bool {
		for p := parents[n]; p != nil; n, p = p, parents[p] {
			switch pp := p.(type) {
			case *ast.ReturnStmt, *ast.CompositeLit:
				return true
			case *ast.AssignStmt:
				if len(pp.Lhs) == len(pp.Rhs) {
					for i, rhs := range pp.Rhs {
						if rhs == n {
							switch ast.Unparen(pp.Lhs[i]).(type) {
							case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
								return true
							}
						}
					}
				}
				return false
			case *ast.CallExpr, *ast.ExprStmt, *ast.BlockStmt:
				return false
			}
		}
		return false
	}
	// heldIn returns the local variable a check-out is assigned to, if
	// that is where it goes.
	heldIn := func(g *ast.CallExpr) types.Object {
		as, ok := parents[g].(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return nil
		}
		for i, rhs := range as.Rhs {
			if id, ok := as.Lhs[i].(*ast.Ident); ok && rhs == g {
				if obj := info.Defs[id]; obj != nil {
					return obj
				}
				return info.Uses[id]
			}
		}
		return nil
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
			case *ast.ReturnStmt, *ast.CompositeLit:
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
		if v := heldIn(g); v != nil && !escapes {
			for _, id := range uses[v] {
				escapes = escapes || storedAway(id)
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
		name := facts.name(pool)
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
