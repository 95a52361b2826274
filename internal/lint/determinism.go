package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// Determinism enforces the repository's central correctness claim: a
// run's output is bit-identical across the memory, spill, and dist
// backends, and across the retries and recomputations of dist recovery.
// Two things break that mechanically:
//
//  1. Go map iteration order reaching the output. A `range` over a map
//     whose body calls Emit ships pairs in random order; a body that
//     appends to a slice is only safe if the slice is sorted before it
//     is used, so an append target with no later sort call in the same
//     function is flagged.
//
//  2. Wall-clock or global-randomness reads on replayed paths. time.Now
//     is banned in internal/core (the algorithms must be pure functions
//     of their seeds) and in codec and spill files (bytes that are
//     encoded, re-read and diffed must not embed clocks). The global
//     math/rand source (rand.Intn etc.) is
//     banned module-wide — deterministic code draws from an explicitly
//     seeded rand.New(rand.NewSource(...)).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: `map iteration order must not reach Emit or unsorted appends; no wall clock or global randomness on replayed paths
Backend equivalence (memory == spill == dist, bit-identical; pinned by
the equivalence and chaos suites since PR 1/5) only holds when nothing
order- or clock-dependent flows into emitted pairs, encoded frames, or
spill runs. Sort map-derived slices before use, take time only in
scheduling code, and seed every rand.Rand explicitly.`,
	Run: runDeterminism,
}

// timeBannedFile reports whether base (a file name) is on a replay
// path where wall-clock reads are banned outright.
func timeBannedFile(base string) bool {
	return strings.Contains(base, "codec") || strings.Contains(base, "spill")
}

// globalRandAllowed lists the math/rand functions that do NOT draw from
// the global source: constructors for explicitly seeded generators.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	corePkg := strings.HasSuffix(pass.Pkg.Path, "/core")
	for _, f := range pass.Pkg.Files {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		banTime := corePkg || timeBannedFile(base)
		ast.Inspect(f, func(n ast.Node) bool {
			nn, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(pass.Pkg.Info, nn)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if banTime && obj.Name() == "Now" {
					pass.Reportf(nn.Pos(), "time.Now on a deterministic replay path (%s); timestamps in encoded or replayed state break bit-identical resume", base)
				}
			case "math/rand", "math/rand/v2":
				fn, isFunc := obj.(*types.Func)
				if !isFunc || globalRandAllowed[fn.Name()] {
					return true
				}
				// Methods on an explicitly constructed rand.Rand are
				// fine; only package-level functions hit the global
				// process-wide source.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					pass.Reportf(nn.Pos(), "rand.%s draws from the global process-wide source; use an explicitly seeded rand.New(rand.NewSource(seed)) so replays reproduce", fn.Name())
				}
			}
			return true
		})
		funcScopes(f, func(_ *ast.FuncType, body *ast.BlockStmt) {
			checkMapRanges(pass, body)
		})
	}
}

// checkMapRanges scans one function scope for `range` statements over
// maps whose iteration order can reach the output. Nested function
// literals are skipped — funcScopes visits them as their own scopes, so
// sort lookups stay within the scope that owns the loop.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		// Look inside the loop body for order-sensitive sinks.
		var emitPos ast.Node
		appended := map[types.Object]ast.Node{}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := ast.Unparen(call.Fun).(type) {
			case *ast.SelectorExpr:
				if fn.Sel.Name == "Emit" && emitPos == nil {
					emitPos = call
				}
			case *ast.Ident:
				if fn.Name == "append" && len(call.Args) > 0 {
					if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
						obj := info.Uses[id]
						// A target declared inside the loop is fresh
						// each iteration — its element order cannot
						// leak the map's iteration order.
						if obj != nil && !(obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
							if _, have := appended[obj]; !have {
								appended[obj] = call
							}
						}
					}
				}
			}
			return true
		})
		if emitPos != nil {
			pass.Reportf(emitPos.Pos(), "Emit inside a range over a map: pair order follows Go's randomized map iteration and diverges across backends and replays; iterate a sorted key slice instead")
		}
		for obj, at := range appended {
			if !sortedAfter(info, body, rs, obj) {
				pass.Reportf(at.Pos(), "append to %s inside a range over a map with no later sort of %s in this function: element order follows randomized map iteration; sort before use or iterate sorted keys", obj.Name(), obj.Name())
			}
		}
		return true
	})
}

// sortedAfter reports whether obj is passed to a sort-like call after
// the range statement, anywhere later in the enclosing body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, after *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= after.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isSortCall recognizes the ordering calls used across the repository:
// the sort and slices packages plus the engine's radix helpers
// (sortPairs, radixSortByImage, ...).
func isSortCall(call *ast.CallExpr) bool {
	var name string
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fn.Sel.Name
		// sort.Strings / sort.Ints / slices.Reverse-after-Sort etc.:
		// the package qualifier alone marks an ordering call.
		if id, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			if q := strings.ToLower(id.Name); q == "sort" || q == "slices" {
				return true
			}
		}
	case *ast.Ident:
		name = fn.Name
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			name = id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			name = id.Name
		}
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "sort") || strings.Contains(lower, "radix")
}
