// Package poolescapex extends poolescape across function boundaries: it
// flags pool-obtained memory handed to a callee that keeps it — stores it
// into longer-lived structure, returns it, or launches a goroutine over it —
// past the caller's recycle point.
//
// poolescape (intraprocedural) already reports direct escapes in the
// function that obtained the memory. What it cannot see is a helper that
// does the escaping on the caller's behalf:
//
//	func stash(c []pair) { global.spill = c }   // the escape is here
//	...
//	buf := pool.Get(n)
//	stash(buf)                                  // but the bug is here
//	pool.Put(buf)
//
// This analyzer computes, for every function with source in the program, a
// parameter escape summary — which parameters the function stores into
// fields, globals or index targets, returns, hands to goroutines, or passes
// on to further callees whose own parameters escape (summaries reach a
// fixpoint over the call graph, so chains of any depth resolve). It then
// reports every call site where a pool-obtained value (per poolescape's
// tracking) flows into an escaping parameter.
//
// Deliberate ownership transfers are annotated on the callee with a
// parameter-level directive in the doc comment:
//
//	// Put returns b to the pool.
//	//fastcc:owned b -- recycle point; the pool owns b after this call
//	func (s *SlicePool[T]) Put(b []T) { ... }
//
// which both exempts that parameter from the summary (callers SHOULD hand
// the memory over — that is the recycle point or an audited transfer) and
// documents the contract where it is implemented. Call-site suppression via
// the //fastcc:owned line marker (shared with poolescape) is also honored
// for transfers that are one caller's business rather than the callee's
// contract.
//
// Known approximations, chosen to keep the pass quiet rather than complete:
// calls that do not resolve to source (function values, interfaces,
// export-only packages) are not reported; appending with an ellipsis
// (append(dst, src...)) is treated as an element copy; and a parameter
// captured by a non-goroutine closure only escapes if the closure body
// itself escapes it.
package poolescapex

import (
	"go/ast"
	"go/token"
	"go/types"

	"fastcc/tools/analysis/framework"
	"fastcc/tools/analysis/poolescape"
)

var Analyzer = &framework.Analyzer{
	Name:       "poolescapex",
	Doc:        "flags pool-obtained memory passed to callees that store, return, or capture it (interprocedural)",
	RunProgram: run,
}

// escapeInfo records, per parameter index, how the parameter escapes.
// Variadic parameters use the index of the final (slice) parameter.
type escapeInfo map[int]string

type summarizer struct {
	graph *framework.CallGraph
	// summaries maps each node to its parameter escape info; grown
	// monotonically to a fixpoint.
	summaries map[*framework.FuncNode]escapeInfo
	// params caches each node's parameter objects in declaration order.
	params map[*framework.FuncNode][]*types.Var
	// owned marks parameters exempted by //fastcc:owned <name> directives.
	owned map[*framework.FuncNode]map[int]bool
}

func run(pass *framework.ProgramPass) error {
	graph := pass.Program.CallGraph()
	s := &summarizer{
		graph:     graph,
		summaries: map[*framework.FuncNode]escapeInfo{},
		params:    map[*framework.FuncNode][]*types.Var{},
		owned:     map[*framework.FuncNode]map[int]bool{},
	}
	for _, node := range graph.Nodes {
		s.params[node] = paramVars(node)
		s.owned[node] = ownedParams(node, s.params[node])
		s.summaries[node] = escapeInfo{}
	}

	// Fixpoint: parameter escapes only accrue (a param starts non-escaping
	// and flips once), so iterate until a full sweep adds nothing.
	for changed := true; changed; {
		changed = false
		for _, node := range graph.Nodes {
			if node.Body == nil {
				continue
			}
			if s.summarize(node) {
				changed = true
			}
		}
	}

	// Reporting sweep: every call site whose argument is pool-obtained and
	// lands in an escaping, non-owned parameter.
	var allFiles []*ast.File
	for _, pkg := range pass.Program.Pkgs {
		allFiles = append(allFiles, pkg.Files...)
	}
	ownedLines := framework.CollectLineMarkers(pass.Program.Fset, allFiles, "owned")

	for _, node := range graph.Nodes {
		if node.Body == nil || node.Pkg.Pkg.Name() == "mempool" {
			// The pool implementation is the ownership authority; its own
			// internal hand-offs are the recycling machinery itself.
			continue
		}
		tracked := trackedWithIndexStores(node.Pkg.TypesInfo, node.Body)
		if len(tracked) == 0 {
			continue
		}
		info := node.Pkg.TypesInfo
		for _, site := range node.Calls {
			// Devirtualized sites contribute every member of the may-call
			// set: an argument escaping through ANY possible callee is a
			// finding. Opaque sites stay out of scope by design.
			for _, callee := range site.Callees {
				esc := s.summaries[callee]
				if len(esc) == 0 {
					continue
				}
				for i, arg := range site.Call.Args {
					if !poolescape.IsPooled(info, tracked, arg) || !carriesRef(info.TypeOf(arg)) {
						continue
					}
					pi := paramIndexForArg(s.params[callee], i)
					how, escapes := esc[pi]
					if !escapes || s.owned[callee][pi] {
						continue
					}
					if framework.MarkedAt(pass.Program.Fset, ownedLines, arg.Pos()) {
						continue
					}
					pname := "?"
					if pi >= 0 && pi < len(s.params[callee]) && s.params[callee][pi] != nil {
						pname = s.params[callee][pi].Name()
					}
					pass.Reportf(arg.Pos(),
						"pool-obtained memory passed to %s escapes via parameter %s (%s); copy it out, annotate the call //fastcc:owned, or mark the parameter //fastcc:owned on %s if the transfer is the contract",
						callee.Name(), pname, how, callee.Name())
				}
			}
		}
	}
	return nil
}

// summarize recomputes node's escape summary, returning whether it grew.
func (s *summarizer) summarize(node *framework.FuncNode) bool {
	params := s.params[node]
	if len(params) == 0 {
		return false
	}
	info := node.Pkg.TypesInfo
	esc := s.summaries[node]

	// aliases[v] = param index whose memory v may reference.
	aliases := map[*types.Var]int{}
	for i, p := range params {
		if p != nil {
			aliases[p] = i
		}
	}
	// Two sweeps make simple alias chains order-insensitive, matching the
	// straight-line style of the codebase.
	for sweep := 0; sweep < 2; sweep++ {
		ast.Inspect(node.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return !isGoverned(node, n) // goroutine literals handled below
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					pi, ok := rootParam(info, aliases, n.Rhs[i])
					if !ok || !carriesRef(info.TypeOf(n.Rhs[i])) {
						continue
					}
					switch l := ast.Unparen(lhs).(type) {
					case *ast.Ident:
						if v := lhsVar(info, l); v != nil {
							if v.IsField() || isPackageLevel(v) {
								mark(esc, pi, "stored in a package variable")
							} else {
								aliases[v] = pi
							}
						}
					case *ast.SelectorExpr:
						if isField(info, l) {
							mark(esc, pi, "stored in field "+l.Sel.Name)
						} else if v := lhsVar(info, l.Sel); v != nil && isPackageLevel(v) {
							mark(esc, pi, "stored in a package variable")
						}
					case *ast.IndexExpr:
						// x[i] = p: the container now references p. If the
						// container is itself a local, it becomes an alias;
						// anything else (field, param slice) is an escape.
						if base, ok := ast.Unparen(l.X).(*ast.Ident); ok {
							if v := lhsVar(info, base); v != nil && !v.IsField() && !isPackageLevel(v) {
								aliases[v] = pi
								continue
							}
						}
						mark(esc, pi, "stored through an index expression")
					case *ast.StarExpr:
						mark(esc, pi, "stored through a pointer")
					}
				}
			case *ast.RangeStmt:
				if pi, ok := rootParam(info, aliases, n.X); ok {
					if id, ok := n.Value.(*ast.Ident); ok {
						if v := lhsVar(info, id); v != nil && carriesRef(v.Type()) {
							aliases[v] = pi
						}
					}
				}
			}
			return true
		})
	}

	// Escape shapes over the resolved alias set.
	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return !isGoverned(node, n)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if pi, ok := rootParam(info, aliases, res); ok && carriesRef(info.TypeOf(res)) {
					mark(esc, pi, "returned")
				}
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if pi, ok := rootParam(info, aliases, arg); ok && carriesRef(info.TypeOf(arg)) {
					mark(esc, pi, "passed to a goroutine")
				}
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				for v, pi := range aliases {
					if capturesVar(info, lit, v) {
						mark(esc, pi, "captured by a goroutine")
					}
				}
			}
		}
		return true
	})

	// Transitive escapes through callees (the two-hop case). Every member of
	// a devirtualized site's may-call set contributes: the summary must hold
	// for whichever callee the dynamic dispatch picks.
	for _, site := range node.Calls {
		for _, callee := range site.Callees {
			calleeEsc := s.summaries[callee]
			if len(calleeEsc) == 0 {
				continue
			}
			for i, arg := range site.Call.Args {
				pi, ok := rootParam(info, aliases, arg)
				if !ok || !carriesRef(info.TypeOf(arg)) {
					continue
				}
				cpi := paramIndexForArg(s.params[callee], i)
				if how, escapes := calleeEsc[cpi]; escapes && !s.owned[callee][cpi] {
					mark(esc, pi, "passed to "+callee.Name()+", which escapes it ("+how+")")
				}
			}
		}
	}
	if len(esc) > len(s.summaries[node]) {
		s.summaries[node] = esc
		return true
	}
	return false
}

// mark records the first escape reason for a parameter (later reasons do not
// overwrite — the first is usually the most direct).
func mark(esc escapeInfo, pi int, how string) {
	if pi < 0 {
		return
	}
	if _, ok := esc[pi]; !ok {
		esc[pi] = how
	}
}

// rootParam resolves an expression to the parameter whose memory it may
// reference: a parameter or alias identifier, possibly behind slicing,
// indexing, field selection, dereference, address-of, or an append whose
// non-ellipsis elements include one.
func rootParam(info *types.Info, aliases map[*types.Var]int, e ast.Expr) (int, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			pi, ok := aliases[v]
			return pi, ok
		}
	case *ast.SliceExpr:
		return rootParam(info, aliases, e.X)
	case *ast.IndexExpr:
		return rootParam(info, aliases, e.X)
	case *ast.SelectorExpr:
		return rootParam(info, aliases, e.X)
	case *ast.StarExpr:
		return rootParam(info, aliases, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return rootParam(info, aliases, e.X)
		}
	case *ast.CallExpr:
		if framework.IsBuiltin(info, e, "append") {
			// append(dst, elems...) with ellipsis copies elements; without,
			// the result references each appended element.
			if !e.Ellipsis.IsValid() {
				for _, arg := range e.Args[1:] {
					if pi, ok := rootParam(info, aliases, arg); ok {
						return pi, true
					}
				}
			}
			return rootParam(info, aliases, e.Args[0])
		}
	}
	return -1, false
}

// paramIndexForArg maps argument position to parameter index, folding
// variadic tails onto the final parameter. Non-variadic calls never have
// more arguments than parameters, so the clamp is only ever exercised for
// variadic callees (including f(xs...) ellipsis calls).
func paramIndexForArg(params []*types.Var, argIdx int) int {
	if len(params) == 0 {
		return -1
	}
	last := len(params) - 1
	if argIdx >= last {
		return last
	}
	return argIdx
}

// paramVars returns the parameter objects of a node in declaration order
// (receiver excluded — receiver escapes are the type's own business).
func paramVars(node *framework.FuncNode) []*types.Var {
	if node.Type == nil || node.Type.Params == nil {
		return nil
	}
	info := node.Pkg.TypesInfo
	var out []*types.Var
	for _, field := range node.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter cannot escape by name
			continue
		}
		for _, name := range field.Names {
			v, _ := info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// ownedParams resolves //fastcc:owned <name> doc directives to parameter
// indices. Only declared functions carry doc comments; literals return nil.
func ownedParams(node *framework.FuncNode, params []*types.Var) map[int]bool {
	if node.Decl == nil {
		return nil
	}
	names := framework.FuncMarkerArgs(node.Decl, "owned")
	if len(names) == 0 {
		return nil
	}
	out := map[int]bool{}
	for _, name := range names {
		for i, p := range params {
			if p != nil && p.Name() == name {
				out[i] = true
			}
		}
	}
	return out
}

// trackedWithIndexStores extends poolescape's tracked-variable set with
// container locals that receive pooled elements by index assignment
// (bufs[w] = pool.Get(n)): passing the container onward hands over the
// pooled elements too.
func trackedWithIndexStores(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	tracked := poolescape.TrackedVars(info, body)
	for sweep := 0; sweep < 2; sweep++ {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if !poolescape.IsPooled(info, tracked, as.Rhs[i]) && !poolescape.SourceCall(info, as.Rhs[i]) {
					continue
				}
				if base, ok := ast.Unparen(idx.X).(*ast.Ident); ok {
					if v, ok := info.Uses[base].(*types.Var); ok && !v.IsField() {
						tracked[v] = true
					}
				}
			}
			return true
		})
	}
	return tracked
}

// carriesRef reports whether a value of type t can reference heap memory —
// only such values can carry pool-obtained backing storage. Scalar copies
// (b[0], an accumulated sum, a length) sever the connection; without this
// gate every element read of a pooled slice would alias its parameter.
func carriesRef(t types.Type) bool {
	if t == nil {
		return true // unknown: stay conservative
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesRef(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return carriesRef(u.Elem())
	default:
		return true // slices, pointers, maps, chans, funcs, interfaces
	}
}

// isGoverned reports whether lit is the function of a `go` statement inside
// node (those are walked by the GoStmt case, not skipped).
func isGoverned(node *framework.FuncNode, lit *ast.FuncLit) bool {
	for _, site := range node.Calls {
		if site.Go && site.Call.Fun == lit {
			return true
		}
	}
	return false
}

// capturesVar reports whether the literal references v from its enclosing
// scope.
func capturesVar(info *types.Info, lit *ast.FuncLit, v *types.Var) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if ok && info.Uses[id] == v && !(lit.Pos() <= v.Pos() && v.Pos() < lit.End()) {
			found = true
		}
		return !found
	})
	return found
}

// lhsVar resolves an identifier on the left of an assignment to its object
// (a definition for :=, a use for =).
func lhsVar(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// isField reports whether sel selects a struct field.
func isField(info *types.Info, sel *ast.SelectorExpr) bool {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	return ok && v.IsField()
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
