// Package wgmisuse flags two sync.WaitGroup mistakes that the type system
// cannot catch and the race detector only catches probabilistically:
//
//  1. Add called inside the spawned goroutine. The canonical broken form is
//
//     go func() { wg.Add(1); defer wg.Done(); ... }()
//     wg.Wait()
//
//     Wait may observe the counter at zero before any goroutine has run its
//     Add, returning early — the exact hazard in FaSTCC's fork/join
//     skeletons (scheduler.Pool/Static) where a
//     too-early Wait publishes half-built shard tables to the contraction
//     phase. Add must happen on the spawning side, before `go`.
//
//  2. Wait on a function-local WaitGroup that has no Add anywhere in the
//     function and whose address never escapes: the Wait is either dead
//     code or the Add it pairs with was lost in a refactor.
//
// Only function-local WaitGroups whose address does not escape are checked
// for (2); a &wg passed to a helper may legitimately receive its Adds there.
package wgmisuse

import (
	"go/ast"
	"go/types"

	"fastcc/tools/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "wgmisuse",
	Doc:  "flags WaitGroup.Add inside spawned goroutines and Wait without any Add",
	Run:  run,
}

func run(pass *framework.Pass) error {
	// Check 1: Add inside a go'ed function literal on a WaitGroup declared
	// outside that literal.
	pass.Preorder(func(n ast.Node) {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if inner, ok := m.(*ast.FuncLit); ok && inner != lit {
				return false // a nested `go` inside is its own problem
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			wg := waitGroupMethodRecv(pass.TypesInfo, call, "Add")
			if wg == nil {
				return true
			}
			if wg.Pos() < lit.Pos() || wg.Pos() >= lit.End() {
				pass.Reportf(call.Pos(),
					"WaitGroup.Add on %q inside the spawned goroutine; Wait can return before this Add runs — call Add before the go statement",
					wg.Name())
			}
			return true
		})
	})

	// Check 2: per function, local WaitGroups with a Wait but no Add and no
	// escaping use.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLocalWaitGroups(pass, fn)
		}
	}
	return nil
}

type wgUse struct {
	adds, waits int
	escapes     bool
	waitPos     ast.Node
}

func checkLocalWaitGroups(pass *framework.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	uses := map[*types.Var]*wgUse{}

	// Collect local non-pointer WaitGroup declarations.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Defs[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if _, isPtr := v.Type().(*types.Pointer); isPtr {
			return true // *WaitGroup locals alias something; out of scope
		}
		if framework.IsNamedType(v.Type(), "sync", "WaitGroup") {
			uses[v] = &wgUse{}
		}
		return true
	})
	if len(uses) == 0 {
		return
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				break
			}
			if v := localWaitGroup(info, sel.X, uses); v != nil {
				switch sel.Sel.Name {
				case "Add":
					uses[v].adds++
					return true
				case "Wait":
					uses[v].waits++
					uses[v].waitPos = n
					return true
				case "Done":
					return true
				}
			}
		case *ast.UnaryExpr:
			// &wg handed anywhere means Adds can happen out of sight.
			if v := localWaitGroup(info, n.X, uses); v != nil {
				uses[v].escapes = true
			}
		case *ast.AssignStmt:
			// wg2 := wg (vet's copylocks territory, but it also aliases).
			for _, rhs := range n.Rhs {
				if v := localWaitGroup(info, rhs, uses); v != nil {
					uses[v].escapes = true
				}
			}
		}
		return true
	})

	for v, u := range uses {
		if u.waits > 0 && u.adds == 0 && !u.escapes {
			pass.Reportf(u.waitPos.Pos(),
				"WaitGroup %q is waited on but never Add-ed in %s and its address does not escape; the Wait is a no-op or the Add was lost",
				v.Name(), fn.Name.Name)
		}
	}
}

// localWaitGroup resolves e to one of the tracked local WaitGroup variables.
func localWaitGroup(info *types.Info, e ast.Expr, uses map[*types.Var]*wgUse) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if _, tracked := uses[v]; !tracked {
		return nil
	}
	return v
}

// waitGroupMethodRecv returns the receiver variable when call is
// wg.<method>() on a sync.WaitGroup-typed variable (value or pointer).
func waitGroupMethodRecv(info *types.Info, call *ast.CallExpr, method string) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !framework.IsNamedType(v.Type(), "sync", "WaitGroup") {
		return nil
	}
	return v
}
