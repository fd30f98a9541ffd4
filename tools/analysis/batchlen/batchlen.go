// Package batchlen checks the length contracts of the batched probe and
// scatter APIs at their call sites.
//
// The tile co-iteration loops (internal/core/kernels.go) drive two APIs whose
// correctness rests on length relations the type system cannot express:
//
//   - hashtable.Sealed.LookupBatch(keys, out) requires len(out) >=
//     len(keys): the batch resolves keys[i] into out[i], and the kernel's
//     one-bounds-check preamble (`_ = out[:len(keys)]`) turns a short out
//     into a panic at best and, if a caller copies the pattern without the
//     preamble, silent truncation at worst.
//
//   - accum.ScatterMatches(ms) scatters every element of ms: callers gather
//     matches into a fixed scratch array and must pass the gathered prefix
//     (`ms[:nm]`), never the whole array (`ms[:]`), or the tail's stale
//     matches from the previous chunk are accumulated again.
//
// The pass is deliberately conservative: it reports only what it can prove
// locally. LookupBatch sites are flagged when both argument lengths resolve
// to compile-time constants (fixed-size array slicings, constant-bounded
// slice expressions, literal lengths) and out is shorter than keys.
// ScatterMatches sites are flagged when the argument is the entirety of a
// fixed-size scratch array — a full slicing `ms[:]`/`ms[0:]`/`ms[:len(ms)]`
// of an array-typed operand — since the gathered count is runtime state, a
// whole-array pass is only correct when every slot is written every chunk,
// which is never how the gather loops are shaped. Dynamic or unprovable
// lengths stay silent. Findings are suppressed per line with
// //fastcc:allow batchlen -- reason.
//
// Matching is name-based like poolescape: LookupBatch on a type declared in
// a package named "hashtable", ScatterMatches on a method (or interface
// method) declared in a package named "accum" — so fixtures model the APIs
// without importing the real module.
package batchlen

import (
	"go/ast"
	"go/constant"
	"go/types"

	"fastcc/tools/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "batchlen",
	Doc:  "checks LookupBatch keys/out widths and ScatterMatches prefix discipline at provable call sites",
	Run:  run,
}

func run(pass *framework.Pass) error {
	pass.Preorder(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch {
		case isBatchMethod(pass.TypesInfo, sel, "LookupBatch", "hashtable") && len(call.Args) == 2:
			checkLookupBatch(pass, call)
		case isBatchMethod(pass.TypesInfo, sel, "ScatterMatches", "accum") && len(call.Args) == 1:
			checkScatterMatches(pass, call)
		}
	})
	return nil
}

// isBatchMethod reports whether sel resolves to a method of the given name
// declared in a package of the given name — concrete or interface method
// alike, so calls through accum.Accumulator match as well as calls on
// *accum.Dense.
func isBatchMethod(info *types.Info, sel *ast.SelectorExpr, method, pkgName string) bool {
	if sel.Sel.Name != method {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Name() == pkgName
}

func checkLookupBatch(pass *framework.Pass, call *ast.CallExpr) {
	keys, kok := constLen(pass.TypesInfo, call.Args[0])
	out, ook := constLen(pass.TypesInfo, call.Args[1])
	if kok && ook && out < keys {
		pass.Reportf(call.Pos(),
			"LookupBatch out holds %d entries but keys holds %d: the batch writes out[i] for every key (out must be at least as long as keys)",
			out, keys)
	}
}

func checkScatterMatches(pass *framework.Pass, call *ast.CallExpr) {
	if n, ok := wholeArrayLen(pass.TypesInfo, call.Args[0]); ok {
		pass.Reportf(call.Pos(),
			"ScatterMatches is passed the entire %d-entry scratch array: pass the gathered prefix (ms[:nm]) or stale matches from the previous chunk are accumulated again",
			n)
	}
}

// constLen resolves e to a compile-time element count when possible:
// fixed-size arrays (and pointers to them), full or constant-bounded
// slicings of them, composite literals, and constant-bounded slicings of
// anything.
func constLen(info *types.Info, e ast.Expr) (int64, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		if e.Slice3 {
			return 0, false
		}
		lo := int64(0)
		if e.Low != nil {
			v, ok := constVal(info, e.Low)
			if !ok {
				return 0, false
			}
			lo = v
		}
		if e.High == nil {
			// x[lo:] — length known only when x's own length is.
			n, ok := arrayLen(info, e.X)
			if !ok {
				return 0, false
			}
			return n - lo, true
		}
		hi, ok := constVal(info, e.High)
		if !ok {
			return 0, false
		}
		return hi - lo, true
	case *ast.CallExpr:
		// make([]T, n) with a constant n.
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) < 2 {
			return 0, false
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return 0, false
		}
		return constVal(info, e.Args[1])
	case *ast.CompositeLit:
		// Keyed elements can set an arbitrary length; only count plain ones.
		for _, el := range e.Elts {
			if _, keyed := el.(*ast.KeyValueExpr); keyed {
				return 0, false
			}
		}
		if _, isArr := arrayLen(info, e); isArr {
			return int64(len(e.Elts)), true
		}
		if _, isSlice := info.Types[e].Type.Underlying().(*types.Slice); isSlice {
			return int64(len(e.Elts)), true
		}
		return 0, false
	default:
		return arrayLen(info, e)
	}
}

// arrayLen returns the length of e's type when it is a fixed-size array or
// a pointer to one.
func arrayLen(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return 0, false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	if a, ok := t.(*types.Array); ok {
		return a.Len(), true
	}
	return 0, false
}

// constVal evaluates e to an int64 constant via the type checker.
func constVal(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}

// wholeArrayLen reports whether e is the entirety of a fixed-size array: a
// full slicing x[:], x[0:], x[:N] or x[0:N] (N the array length) of an
// array-typed operand. A plain array-typed expression cannot reach a slice
// parameter, so slicings are the only shape to catch.
func wholeArrayLen(info *types.Info, e ast.Expr) (int64, bool) {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || se.Slice3 {
		return 0, false
	}
	n, ok := arrayLen(info, se.X)
	if !ok {
		return 0, false
	}
	if se.Low != nil {
		if v, ok := constVal(info, se.Low); !ok || v != 0 {
			return 0, false
		}
	}
	if se.High != nil {
		if v, ok := constVal(info, se.High); !ok || v != n {
			return 0, false
		}
	}
	return n, true
}
