// Flow-insensitive points-to analysis for function values: the half of the
// devirtualization layer that resolves indirect calls through variables,
// struct fields and tables of funcs (cha.go resolves the interface half).
//
// The model is an Andersen-style constraint system specialized to function
// values. Abstract locations are
//
//   - variables and struct fields of function type (one location per
//     types.Var — fields are field-sensitive but receiver-insensitive: every
//     instance of a struct shares its field's location),
//   - the merged elements of a container (slice, array, map) of functions,
//     one location per container variable or field (dispatch tables), and
//   - the results of each function with source, one location per (function,
//     result index), which is how func-returning helpers that index a
//     dispatch table propagate their table reads to their callers.
//
// Seeding walks every loaded file once: function literals and uses of
// declared functions as values flow into the location they are assigned,
// stored or passed to; composite literals seed field and element locations;
// call sites link arguments to parameter locations and bindings to result
// locations. Propagation then closes the subset edges to a fixpoint.
//
// Anything the model does not understand makes the receiving location
// Unknown rather than silently empty: reads through pointers, channels,
// type assertions, unsafe, calls into packages loaded only as export data,
// and taking the address of a func-typed variable all poison the locations
// they touch. A call site resolved against an Unknown location stays
// Opaque, which is the documented fallback — the soundness gap is counted,
// not hidden (see CallStats).
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A ptKey names one abstract location. Exactly one of v and fn is set: v
// for variable/field locations (elem selects the container-element cell),
// fn+ret for a function's result location.
type ptKey struct {
	v    *types.Var
	fn   *FuncNode
	ret  int
	elem bool
}

// A funcSet is a may-point-to set. unknown records that a value of
// unanalyzable origin may also inhabit the location.
type funcSet struct {
	funcs   map[*FuncNode]bool
	unknown bool
}

// PointsTo is the solved constraint system.
type PointsTo struct {
	graph *CallGraph
	pts   map[ptKey]*funcSet
	// edges[src] lists the locations that must include src's set (dst ⊇ src).
	edges map[ptKey][]ptKey
	seen  map[[2]ptKey]bool
}

func (pt *PointsTo) set(k ptKey) *funcSet {
	s := pt.pts[k]
	if s == nil {
		s = &funcSet{funcs: map[*FuncNode]bool{}}
		pt.pts[k] = s
	}
	return s
}

func (pt *PointsTo) addFunc(k ptKey, n *FuncNode) {
	if n == nil {
		pt.set(k).unknown = true
		return
	}
	pt.set(k).funcs[n] = true
}

func (pt *PointsTo) setUnknown(k ptKey) { pt.set(k).unknown = true }

func (pt *PointsTo) addEdge(dst, src ptKey) {
	key := [2]ptKey{dst, src}
	if pt.seen[key] {
		return
	}
	pt.seen[key] = true
	pt.edges[src] = append(pt.edges[src], dst)
	pt.set(src) // materialize so propagation visits it
	pt.set(dst)
}

// isFuncType reports whether t's underlying type is a function signature.
func isFuncType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// funcContainerElem returns the element type when t is a container (slice,
// array, map) whose elements are functions or nested func containers.
func funcContainerElem(t types.Type) (types.Type, bool) {
	if t == nil {
		return nil, false
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	case *types.Map:
		elem = u.Elem()
	case *types.Pointer:
		// *[N]func(): slicing and indexing work through the pointer.
		return funcContainerElem(u.Elem())
	default:
		return nil, false
	}
	if isFuncType(elem) {
		return elem, true
	}
	if _, ok := funcContainerElem(elem); ok {
		return elem, true
	}
	return nil, false
}

// buildPointsTo seeds and solves the constraint system over every loaded
// package. The call graph must already have its direct edges resolved —
// argument/parameter and result linking follow them.
func buildPointsTo(pkgs []*Package, g *CallGraph) *PointsTo {
	pt := &PointsTo{
		graph: g,
		pts:   map[ptKey]*funcSet{},
		edges: map[ptKey][]ptKey{},
		seen:  map[[2]ptKey]bool{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			pt.seedFile(pkg.TypesInfo, file)
		}
	}
	for _, node := range g.Nodes {
		pt.seedNode(node)
	}
	pt.solve()
	return pt
}

// seedFile walks one file for the location-independent seeds: assignments,
// var declarations, composite literals, range bindings, and address-of
// poisoning. Function bodies are included — these shapes read the same
// regardless of the enclosing function.
func (pt *PointsTo) seedFile(info *types.Info, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			pt.seedAssign(info, n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				v, _ := info.Defs[name].(*types.Var)
				if v == nil {
					continue
				}
				if i < len(n.Values) {
					pt.flowTo(info, v, n.Values[i])
				} else if len(n.Values) == 1 && len(n.Names) > 1 {
					// var a, b = f(): tuple binding.
					pt.flowTupleResult(info, v, n.Values[0], i)
				}
			}
		case *ast.CompositeLit:
			pt.seedStructLit(info, n)
		case *ast.RangeStmt:
			// for _, f := range table: the value binding reads the elements.
			if n.Value != nil {
				if id, ok := n.Value.(*ast.Ident); ok {
					if v, _ := info.Defs[id].(*types.Var); v != nil && isFuncType(v.Type()) {
						if root, ok := pt.containerLoc(info, n.X); ok {
							pt.addEdge(ptKey{v: v}, root)
						} else {
							pt.setUnknown(ptKey{v: v})
						}
					}
				}
			}
		case *ast.UnaryExpr:
			// Taking the address of a func-typed variable (or a container of
			// funcs) lets writes happen through the pointer, which the model
			// does not track: poison the location.
			if n.Op == token.AND {
				t := info.TypeOf(n.X)
				if isFuncType(t) {
					if loc, ok := pt.valueLoc(info, n.X); ok {
						pt.setUnknown(loc)
					}
				} else if _, ok := funcContainerElem(t); ok {
					if root, ok := pt.containerLoc(info, n.X); ok {
						pt.setUnknown(root)
					}
				}
			}
		}
		return true
	})
}

// seedAssign handles one assignment statement, = and := alike.
func (pt *PointsTo) seedAssign(info *types.Info, as *ast.AssignStmt) {
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		// Tuple assignment: from a call's results, or a comma-ok form whose
		// value half is poisoned (map read, type assertion, channel receive).
		for i, lhs := range as.Lhs {
			pt.flowTupleTo(info, lhs, as.Rhs[0], i)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		pt.flowToExpr(info, lhs, as.Rhs[i])
	}
}

// flowToExpr flows rhs into the location named by the lhs expression.
func (pt *PointsTo) flowToExpr(info *types.Info, lhs, rhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	t := info.TypeOf(lhs)
	switch {
	case isFuncType(t):
		if loc, ok := pt.valueLoc(info, lhs); ok {
			pt.flowValue(info, loc, rhs)
		} else if root, ok := pt.indexTargetLoc(info, lhs); ok {
			// table[i] = f: the element cell absorbs the value.
			pt.flowValue(info, root, rhs)
		}
		// Unresolvable func-typed targets (writes through pointers or into
		// unanalyzable structure) lose the value; reads from such places
		// come back unknown, so resolution stays conservative.
	default:
		if _, ok := funcContainerElem(t); ok {
			if root, ok := pt.containerLoc(info, lhs); ok {
				pt.flowContainer(info, root, rhs)
			}
		}
	}
}

// flowTo flows rhs into variable v (declaration forms).
func (pt *PointsTo) flowTo(info *types.Info, v *types.Var, rhs ast.Expr) {
	if isFuncType(v.Type()) {
		pt.flowValue(info, ptKey{v: v}, rhs)
	} else if _, ok := funcContainerElem(v.Type()); ok {
		pt.flowContainer(info, ptKey{v: v, elem: true}, rhs)
	}
}

// flowTupleTo links one lhs of a tuple assignment to result i of the rhs.
func (pt *PointsTo) flowTupleTo(info *types.Info, lhs, rhs ast.Expr, i int) {
	lhs = ast.Unparen(lhs)
	t := info.TypeOf(lhs)
	isFunc := isFuncType(t)
	_, isContainer := funcContainerElem(t)
	if !isFunc && !isContainer {
		return
	}
	var loc ptKey
	var ok bool
	if isFunc {
		loc, ok = pt.valueLoc(info, lhs)
	} else {
		loc, ok = pt.containerLoc(info, lhs)
	}
	if !ok {
		return
	}
	if call, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
		if callee := pt.calleeNode(info, call); callee != nil {
			src := ptKey{fn: callee, ret: i, elem: isContainer}
			pt.addEdge(loc, src)
			return
		}
	}
	// Comma-ok forms and calls without source: unknown origin.
	pt.setUnknown(loc)
}

// flowTupleResult links var i of a multi-binding var decl to the call.
func (pt *PointsTo) flowTupleResult(info *types.Info, v *types.Var, rhs ast.Expr, i int) {
	isFunc := isFuncType(v.Type())
	_, isContainer := funcContainerElem(v.Type())
	if !isFunc && !isContainer {
		return
	}
	loc := ptKey{v: v, elem: isContainer}
	if call, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
		if callee := pt.calleeNode(info, call); callee != nil {
			pt.addEdge(loc, ptKey{fn: callee, ret: i, elem: isContainer})
			return
		}
	}
	pt.setUnknown(loc)
}

// valueLoc resolves an expression to the location holding its func value,
// when the expression is a trackable place (variable, field, package var).
func (pt *PointsTo) valueLoc(info *types.Info, e ast.Expr) (ptKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Defs[e]
		if obj == nil {
			obj = info.Uses[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return ptKey{v: v}, true
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			if sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					return ptKey{v: v}, true
				}
			}
			return ptKey{}, false
		}
		// Qualified identifier: pkg.Var.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			return ptKey{v: v}, true
		}
	}
	return ptKey{}, false
}

// containerLoc resolves a container expression to its element cell.
func (pt *PointsTo) containerLoc(info *types.Info, e ast.Expr) (ptKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if loc, ok := pt.valueLoc(info, e); ok {
			return ptKey{v: loc.v, elem: true}, true
		}
	case *ast.IndexExpr:
		// Nested containers merge into the outer cell.
		return pt.containerLoc(info, e.X)
	case *ast.SliceExpr:
		return pt.containerLoc(info, e.X)
	case *ast.StarExpr:
		return pt.containerLoc(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return pt.containerLoc(info, e.X)
		}
	}
	return ptKey{}, false
}

// indexTargetLoc resolves an index-assignment target (table[i] = f) to the
// container's element cell.
func (pt *PointsTo) indexTargetLoc(info *types.Info, e ast.Expr) (ptKey, bool) {
	idx, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return ptKey{}, false
	}
	return pt.containerLoc(info, idx.X)
}

// flowValue flows the func value of expression e into dst.
func (pt *PointsTo) flowValue(info *types.Info, dst ptKey, e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		pt.addFunc(dst, pt.graph.ByLit[e])
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			pt.addFunc(dst, pt.graph.ByObj[funcOrigin(obj)])
		case *types.Var:
			pt.addEdge(dst, ptKey{v: obj})
		case *types.Nil:
			// nil contributes nothing.
		case nil:
			if e.Name != "nil" && e.Name != "_" {
				pt.setUnknown(dst)
			}
		default:
			pt.setUnknown(dst)
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				if fn, ok := sel.Obj().(*types.Func); ok {
					pt.addFunc(dst, pt.graph.ByObj[funcOrigin(fn)])
					return
				}
			case types.FieldVal:
				if v, ok := sel.Obj().(*types.Var); ok {
					pt.addEdge(dst, ptKey{v: v})
					return
				}
			}
			pt.setUnknown(dst)
			return
		}
		switch obj := info.Uses[e.Sel].(type) {
		case *types.Func:
			pt.addFunc(dst, pt.graph.ByObj[funcOrigin(obj)])
		case *types.Var:
			pt.addEdge(dst, ptKey{v: obj})
		default:
			pt.setUnknown(dst)
		}
	case *ast.IndexExpr:
		// Either a table read or a generic instantiation F[T].
		if tv, ok := info.Types[e.X]; ok && tv.IsType() {
			pt.setUnknown(dst)
			return
		}
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				pt.addFunc(dst, pt.graph.ByObj[funcOrigin(fn)])
				return
			}
		}
		if root, ok := pt.containerLoc(info, e.X); ok {
			pt.addEdge(dst, root)
		} else {
			pt.setUnknown(dst)
		}
	case *ast.CallExpr:
		if IsConversionOrBuiltin(info, e) {
			// Conversion of a func value: same value, new type.
			if len(e.Args) == 1 && !IsBuiltin(info, e, "append") {
				pt.flowValue(info, dst, e.Args[0])
			} else {
				pt.setUnknown(dst)
			}
			return
		}
		if callee := pt.calleeNode(info, e); callee != nil {
			pt.addEdge(dst, ptKey{fn: callee, ret: 0})
		} else {
			pt.setUnknown(dst)
		}
	default:
		pt.setUnknown(dst)
	}
}

// flowContainer flows the elements of container expression e into the cell.
func (pt *PointsTo) flowContainer(info *types.Info, cell ptKey, e ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		pt.flowContainerLit(info, cell, e)
	case *ast.CallExpr:
		if IsBuiltin(info, e, "append") {
			pt.flowContainer(info, cell, e.Args[0])
			if e.Ellipsis.IsValid() {
				if len(e.Args) == 2 {
					pt.flowContainer(info, cell, e.Args[1])
				}
			} else {
				for _, arg := range e.Args[1:] {
					pt.flowValue(info, cell, arg)
				}
			}
			return
		}
		if IsBuiltin(info, e, "make") {
			return // empty container
		}
		if IsConversionOrBuiltin(info, e) {
			if len(e.Args) == 1 {
				pt.flowContainer(info, cell, e.Args[0])
			} else {
				pt.setUnknown(cell)
			}
			return
		}
		if callee := pt.calleeNode(info, e); callee != nil {
			pt.addEdge(cell, ptKey{fn: callee, ret: 0, elem: true})
		} else {
			pt.setUnknown(cell)
		}
	case *ast.Ident:
		if _, isNil := info.Uses[e].(*types.Nil); isNil || (e.Name == "nil" && info.Uses[e] == nil) {
			return
		}
		if src, ok := pt.containerLoc(info, e); ok {
			pt.addEdge(cell, src)
		} else {
			pt.setUnknown(cell)
		}
	default:
		if src, ok := pt.containerLoc(info, e); ok {
			pt.addEdge(cell, src)
		} else {
			pt.setUnknown(cell)
		}
	}
}

// flowContainerLit seeds a slice/array/map composite literal's elements
// into the cell. Struct literals are handled by seedStructLit.
func (pt *PointsTo) flowContainerLit(info *types.Info, cell ptKey, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			elt = kv.Value
		}
		if inner, ok := elt.(*ast.CompositeLit); ok {
			t := info.TypeOf(inner)
			if t != nil {
				if _, isStruct := t.Underlying().(*types.Struct); isStruct {
					continue // seedStructLit covers its fields
				}
			}
			pt.flowContainerLit(info, cell, inner)
			continue
		}
		if isFuncType(info.TypeOf(elt)) {
			pt.flowValue(info, cell, elt)
		} else if _, ok := funcContainerElem(info.TypeOf(elt)); ok {
			pt.flowContainer(info, cell, elt)
		}
	}
}

// seedStructLit seeds the func-typed (and func-container) fields of a
// struct composite literal. Field locations are global per field object, so
// this covers literals in any position: assignments, returns, arguments.
func (pt *PointsTo) seedStructLit(info *types.Info, lit *ast.CompositeLit) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var field *types.Var
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			field, _ = info.Uses[key].(*types.Var)
			value = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i)
		}
		if field == nil {
			continue
		}
		if isFuncType(field.Type()) {
			pt.flowValue(info, ptKey{v: field}, value)
		} else if _, ok := funcContainerElem(field.Type()); ok {
			pt.flowContainer(info, ptKey{v: field, elem: true}, value)
		}
	}
}

// seedNode adds the per-function constraints that need the call graph:
// argument→parameter links for resolved direct calls, and return→result
// links for this node's own returns.
func (pt *PointsTo) seedNode(node *FuncNode) {
	if node.Body == nil {
		return
	}
	info := node.Pkg.TypesInfo

	for _, site := range node.Calls {
		callee := site.Callee
		if callee == nil || callee.Body == nil {
			// Args handed to unresolved or external callees do not poison
			// their own locations — external code cannot write our locals —
			// but a func-typed arg READ back later from such a callee comes
			// back through a result location that stays unknown. Sites the
			// devirtualizer resolves later get their arg links added then
			// (seedCallArgs), with solve/refine iterated to a fixpoint.
			continue
		}
		pt.seedCallArgs(info, site.Call, callee)
	}

	// Named results seed the result locations even without explicit returns.
	namedResults := map[int]*types.Var{}
	if node.Type != nil && node.Type.Results != nil {
		idx := 0
		for _, field := range node.Type.Results.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					namedResults[idx] = v
				}
				idx++
			}
		}
	}
	for idx, v := range namedResults {
		if isFuncType(v.Type()) {
			pt.addEdge(ptKey{fn: node, ret: idx}, ptKey{v: v})
		} else if _, ok := funcContainerElem(v.Type()); ok {
			pt.addEdge(ptKey{fn: node, ret: idx, elem: true}, ptKey{v: v, elem: true})
		}
	}

	// Explicit returns in this node's own body (nested literals return for
	// themselves).
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 1 {
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				// return f(...): forward every result of the callee.
				if !IsConversionOrBuiltin(info, call) {
					if callee := pt.calleeNode(info, call); callee != nil {
						if sig := calleeSignature(callee); sig != nil {
							for i := 0; i < sig.Results().Len(); i++ {
								rt := sig.Results().At(i).Type()
								if isFuncType(rt) {
									pt.addEdge(ptKey{fn: node, ret: i}, ptKey{fn: callee, ret: i})
								} else if _, ok := funcContainerElem(rt); ok {
									pt.addEdge(ptKey{fn: node, ret: i, elem: true}, ptKey{fn: callee, ret: i, elem: true})
								}
							}
						}
						return true
					}
					// Forwarded results of unknown callees poison this
					// node's own func-typed results.
					pt.poisonFuncResults(node)
					return true
				}
			}
		}
		for i, res := range ret.Results {
			t := info.TypeOf(res)
			if isFuncType(t) {
				pt.flowValue(info, ptKey{fn: node, ret: i}, res)
			} else if _, ok := funcContainerElem(t); ok {
				pt.flowContainer(info, ptKey{fn: node, ret: i, elem: true}, res)
			}
		}
		return true
	})
}

// seedCallArgs links one call's arguments into one callee's parameter
// locations, with variadic folding. Called once per (site, callee) pair:
// during seeding for direct edges, and again from the devirtualization
// fixpoint as indirect sites resolve.
func (pt *PointsTo) seedCallArgs(info *types.Info, call *ast.CallExpr, callee *FuncNode) {
	if callee.Body == nil {
		return
	}
	params := calleeParamVars(callee)
	sig := calleeSignature(callee)
	for i, arg := range call.Args {
		pi := i
		variadicTail := false
		if sig != nil && sig.Variadic() {
			last := len(params) - 1
			if i >= last {
				pi = last
				variadicTail = !call.Ellipsis.IsValid()
			}
		}
		if pi < 0 || pi >= len(params) || params[pi] == nil {
			continue
		}
		p := params[pi]
		if variadicTail {
			// Each tail arg is an element of the variadic slice param.
			if isFuncType(info.TypeOf(arg)) {
				pt.flowValue(info, ptKey{v: p, elem: true}, arg)
			}
			continue
		}
		if isFuncType(p.Type()) {
			pt.flowValue(info, ptKey{v: p}, arg)
		} else if _, ok := funcContainerElem(p.Type()); ok {
			pt.flowContainer(info, ptKey{v: p, elem: true}, arg)
		}
	}
}

// poisonFuncResults marks every func-typed result location of node unknown.
func (pt *PointsTo) poisonFuncResults(node *FuncNode) {
	sig := calleeSignature(node)
	if sig == nil {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		rt := sig.Results().At(i).Type()
		if isFuncType(rt) {
			pt.setUnknown(ptKey{fn: node, ret: i})
		} else if _, ok := funcContainerElem(rt); ok {
			pt.setUnknown(ptKey{fn: node, ret: i, elem: true})
		}
	}
}

// calleeNode resolves a call to a callee node with source, mirroring the
// call graph's direct resolution (literal calls included).
func (pt *PointsTo) calleeNode(info *types.Info, call *ast.CallExpr) *FuncNode {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return pt.graph.ByLit[lit]
	}
	if fn := CalleeFunc(info, call); fn != nil {
		return pt.graph.ByObj[funcOrigin(fn)]
	}
	return nil
}

// calleeParamVars returns the callee's parameter objects (receiver excluded).
func calleeParamVars(node *FuncNode) []*types.Var {
	if node.Type == nil || node.Type.Params == nil {
		return nil
	}
	info := node.Pkg.TypesInfo
	var out []*types.Var
	for _, field := range node.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			v, _ := info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// calleeSignature returns the node's type-checked signature.
func calleeSignature(node *FuncNode) *types.Signature {
	if node.Obj != nil {
		sig, _ := node.Obj.Type().(*types.Signature)
		return sig
	}
	if node.Lit != nil {
		t := node.Pkg.TypesInfo.TypeOf(node.Lit)
		if t != nil {
			sig, _ := t.Underlying().(*types.Signature)
			return sig
		}
	}
	return nil
}

// funcOrigin maps an instantiated generic function or method back to its
// declared (origin) object, which is what Defs recorded.
func funcOrigin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// solve closes the subset edges: each location's set flows into every
// location with an edge from it, to a fixpoint.
func (pt *PointsTo) solve() {
	for changed := true; changed; {
		changed = false
		for src, dsts := range pt.edges {
			ss := pt.pts[src]
			if ss == nil {
				continue
			}
			for _, dst := range dsts {
				ds := pt.set(dst)
				if ss.unknown && !ds.unknown {
					ds.unknown = true
					changed = true
				}
				for f := range ss.funcs {
					if !ds.funcs[f] {
						ds.funcs[f] = true
						changed = true
					}
				}
			}
		}
	}
}

// CallTargets resolves the function expression of an indirect call to its
// may-call set. complete reports whether the set accounts for every value
// that can reach the call — when false the site must stay Opaque.
func (pt *PointsTo) CallTargets(info *types.Info, fun ast.Expr) (targets []*FuncNode, complete bool) {
	fun = ast.Unparen(fun)
	var loc ptKey
	var ok bool
	switch e := fun.(type) {
	case *ast.IndexExpr:
		// table[i](...): read the container cell. (Generic instantiations
		// resolve directly and never reach here.)
		loc, ok = pt.containerLoc(info, e.X)
	case *ast.CallExpr:
		// factory()(...): the result location of the inner call.
		if callee := pt.calleeNode(info, e); callee != nil {
			loc, ok = ptKey{fn: callee, ret: 0}, true
		}
	default:
		loc, ok = pt.valueLoc(info, fun)
	}
	if !ok {
		return nil, false
	}
	s := pt.pts[loc]
	if s == nil {
		// Location never seeded: no analyzed write reaches it. A call
		// through it would be a nil deref at runtime; resolution cannot
		// vouch for writes it never saw, so stay opaque.
		return nil, false
	}
	for f := range s.funcs {
		targets = append(targets, f)
	}
	sort.Slice(targets, func(i, j int) bool { return nodePos(targets[i]) < nodePos(targets[j]) })
	return targets, !s.unknown
}

func nodePos(n *FuncNode) token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return token.NoPos
}
