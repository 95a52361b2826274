package lint

import (
	"go/ast"
	"go/types"
)

// NoRetain enforces the ReduceFunc values-slice contract established in
// PR 4: the engine round-recycles the backing arrays of the values
// slice it hands a reducer (BufferPool/roundArena), so a reducer that
// stores the slice — or a sub-slice sharing the backing array — into
// anything that outlives the call reads recycled memory next round.
// Retainers must clone (append([]V(nil), values...) / slices.Clone).
// A state job's reduce gets its messages under the same contract.
//
// A function is a reducer when its signature matches the ReduceFunc
// shape, func(K, []V, mapreduce.Emitter[K2, V2]) error, or the
// StateReduceFunc shape, func(K, *S, []V, mapreduce.Emitter[K2, V2])
// error: a slice next to last, the Emitter last. Inside one, the
// analyzer tracks the values parameter and every local alias of it
// (x := values, x := values[i:j]) and flags:
//   - assignment of the slice (or a sub-slice) to a field, index
//     expression, dereference, or any variable declared outside the
//     reducer;
//   - append(dst, values) — storing the slice header as an element
//     (append(dst, values...) copies elements and is fine);
//   - Emit(k, values) — buckets retain emitted values across the call;
//   - capture by a nested function literal, which may outlive the call.
var NoRetain = &Analyzer{
	Name: "noretain",
	Doc: `a ReduceFunc or StateReduceFunc must not retain its values slice (or a sub-slice) beyond the call
The engine recycles the slice's backing array — a reduce's values, a
state reduce's msgs — into the next round's buffers (the
BufferPool/roundArena), so retained headers silently alias recycled
memory. Clone before storing: append([]V(nil), vals...) or slices.Clone.`,
	Run: runNoRetain,
}

func runNoRetain(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		funcScopes(f, func(ft *ast.FuncType, body *ast.BlockStmt) {
			valuesObj := reduceValuesParam(info, ft)
			if valuesObj == nil {
				return
			}
			checkRetention(pass, body, valuesObj)
		})
	}
}

// reduceValuesParam returns the object of the values parameter when ft
// has the ReduceFunc or the StateReduceFunc shape, else nil.
func reduceValuesParam(info *types.Info, ft *ast.FuncType) types.Object {
	if ft.Params == nil {
		return nil
	}
	n := ft.Params.NumFields()
	if n != 3 && n != 4 || len(ft.Params.List) != n {
		return nil
	}
	// The last parameter must be the engine's Emitter.
	emitField := ft.Params.List[n-1]
	tv, ok := info.Types[emitField.Type]
	if !ok || !isNamedType(tv.Type, "internal/mapreduce", "Emitter") {
		return nil
	}
	// The one before it must be a slice, and named so it can be tracked.
	valField := ft.Params.List[n-2]
	vtv, ok := info.Types[valField.Type]
	if !ok {
		return nil
	}
	if _, isSlice := vtv.Type.Underlying().(*types.Slice); !isSlice {
		return nil
	}
	if len(valField.Names) != 1 || valField.Names[0].Name == "_" {
		return nil
	}
	return info.Defs[valField.Names[0]]
}

// checkRetention walks a reducer body in source order, growing the
// alias set as locals bind to the values slice and reporting escapes.
func checkRetention(pass *Pass, body *ast.BlockStmt, values types.Object) {
	info := pass.Pkg.Info
	aliases := map[types.Object]bool{values: true}

	// isAliasExpr reports whether e denotes the values slice or a
	// sub-slice of it: an alias identifier, a slice expression over an
	// alias, a conversion of either to another slice type (it shares the
	// backing array), or parens around any of these. values[i] (one
	// element) is a value copy and is fine.
	var isAliasExpr func(e ast.Expr) bool
	isAliasExpr = func(e ast.Expr) bool {
		switch ee := ast.Unparen(e).(type) {
		case *ast.Ident:
			return aliases[info.Uses[ee]]
		case *ast.SliceExpr:
			return isAliasExpr(ee.X)
		case *ast.CallExpr:
			if tv, ok := info.Types[ee.Fun]; ok && tv.IsType() && len(ee.Args) == 1 {
				_, toSlice := tv.Type.Underlying().(*types.Slice)
				return toSlice && isAliasExpr(ee.Args[0])
			}
		}
		return false
	}

	// localObj resolves an assignment LHS identifier to its object when
	// the identifier is declared inside this reducer body.
	localObj := func(e ast.Expr) (types.Object, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return nil, false
		}
		local := obj.Pos() >= body.Pos() && obj.Pos() < body.End()
		return obj, local
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range nn.Rhs {
				if len(nn.Lhs) != len(nn.Rhs) {
					break // multi-value call on the RHS: no alias flows
				}
				if !isAliasExpr(rhs) {
					continue
				}
				lhs := ast.Unparen(nn.Lhs[i])
				switch lt := lhs.(type) {
				case *ast.Ident:
					if lt.Name == "_" {
						continue
					}
					if obj, local := localObj(lt); local {
						aliases[obj] = true // x := values — track the alias
						continue
					}
					pass.Reportf(rhs.Pos(), "values slice assigned to %s, which outlives the reduce call: the engine recycles its backing array next round — clone first", lt.Name)
				case *ast.SelectorExpr:
					pass.Reportf(rhs.Pos(), "values slice stored into field %s: fields outlive the reduce call and the engine recycles the backing array — clone first", lt.Sel.Name)
				default: // index expr, star expr, ...
					pass.Reportf(rhs.Pos(), "values slice stored through %T, which outlives the reduce call: clone before storing", lhs)
				}
			}
		case *ast.CallExpr:
			switch fn := ast.Unparen(nn.Fun).(type) {
			case *ast.Ident:
				if fn.Name == "append" && len(nn.Args) > 1 {
					for i, arg := range nn.Args[1:] {
						if nn.Ellipsis.IsValid() && i+1 == len(nn.Args)-1 {
							continue // append(dst, values...) copies elements: fine
						}
						if isAliasExpr(arg) {
							pass.Reportf(arg.Pos(), "append stores the values slice header as an element; the backing array is recycled next round — append a clone, or copy elements with values...")
						}
					}
				}
			case *ast.SelectorExpr:
				if fn.Sel.Name == "Emit" {
					for _, arg := range nn.Args {
						if isAliasExpr(arg) {
							pass.Reportf(arg.Pos(), "Emit retains its value in the shuffle bucket past this call; emitting the values slice aliases recycled memory — emit a clone")
						}
					}
				}
			}
		case *ast.FuncLit:
			// A nested literal capturing the slice may run after the
			// reduce call returns (goroutine, stored callback).
			captured := false
			ast.Inspect(nn.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && aliases[info.Uses[id]] {
					captured = true
				}
				return !captured
			})
			if captured {
				pass.Reportf(nn.Pos(), "function literal captures the values slice; if it outlives the reduce call it reads recycled memory — clone into the closure")
			}
			return false // literal's own assignments judged by the capture rule
		}
		return true
	})
}
