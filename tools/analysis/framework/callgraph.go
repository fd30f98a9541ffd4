// Call graph over the loaded packages' go/types info: the whole-program
// substrate for the interprocedural analyzers (poolescapex, lockorder,
// pinbracket). Nodes are declared functions and function literals with
// source available. Edges come in two tiers:
//
//   - direct resolution through types.Info: direct calls, method calls on
//     concrete receivers, immediately invoked literals;
//   - devirtualization: interface method calls resolve through
//     class-hierarchy analysis (cha.go) to the concrete methods implementing
//     the interface in the program, and indirect calls through function
//     values resolve through a flow-insensitive points-to pass
//     (pointsto.go) that tracks func literals and declared functions into
//     variables, struct fields and arrays of functions (dispatch tables).
//
// A site whose callee set the analysis cannot account for — a func value of
// unanalyzable origin, an interface declared outside the program, a call
// into a package loaded only as export data — is marked Opaque, and nodes
// containing any such call are Opaque too, so clients can choose a
// conservative treatment. The //fastcc:dynamic line directive marks a call
// site as intentionally dynamic: it stays unresolved but is counted apart
// from the accidental opacity CallStats tracks (fastcc-vet -stats).
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Program is the whole-program view over one Load's pattern-matched
// packages, with a lazily built shared call graph.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	graph *CallGraph
}

// NewProgram wraps the packages of one Load call. All packages of a program
// must share one token.FileSet (Load guarantees this).
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Pkgs: pkgs}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	return p
}

// CallGraph returns the program's call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p.Pkgs)
	}
	return p.graph
}

// CallStats returns the program's call-site accounting (building the graph
// on first use).
func (p *Program) CallStats() CallStats {
	return p.CallGraph().Stats
}

// A FuncNode is one function with source available: a declared function or
// method (Obj non-nil), or a function literal (Lit non-nil). Literals link
// back to the function they appear in via Encl.
type FuncNode struct {
	Obj  *types.Func    // declared functions; nil for literals
	Decl *ast.FuncDecl  // non-nil iff Obj is
	Lit  *ast.FuncLit   // non-nil iff this node is a literal
	Pkg  *Package       // the package the body lives in
	Encl *FuncNode      // for literals: the lexically enclosing function
	Body *ast.BlockStmt // nil for bodyless declarations (assembly stubs)
	Type *ast.FuncType  // the node's signature syntax

	// Calls lists every call expression in the body (not descending into
	// nested literals — those get their own node), in source order.
	Calls []CallSite

	// Opaque records that the body contains calls the graph cannot resolve
	// (escaping function values, external interfaces, export-only callees):
	// the node may reach functions the edge set does not show.
	Opaque bool
}

// Name returns a human-readable identifier for diagnostics.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		return n.Obj.Name()
	}
	if n.Encl != nil {
		return "func literal in " + n.Encl.Name()
	}
	return "func literal"
}

// A CallKind classifies how a call site's callees were resolved.
type CallKind uint8

const (
	// CallOther: a type conversion or builtin — not a function call.
	CallOther CallKind = iota
	// CallDirect: statically resolved to one function with source.
	CallDirect
	// CallExternal: statically resolved to a function without source in the
	// program (standard library, export-only dependency).
	CallExternal
	// CallInterface: an interface method call, devirtualized via CHA when
	// the site is not Opaque.
	CallInterface
	// CallFuncValue: an indirect call through a function value, resolved
	// via points-to when the site is not Opaque.
	CallFuncValue
)

// A CallSite is one call expression inside a FuncNode's body.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the sole callee when the site resolves to exactly one node
	// with source; nil otherwise. Kept for clients that only handle
	// single-callee sites — Callees is the canonical may-call set.
	Callee *FuncNode
	// Callees is the may-call set: every function with source the call can
	// reach. Direct calls have one entry; devirtualized sites may have
	// several; Opaque and external sites have none (or a partial set the
	// Opaque flag disclaims).
	Callees []*FuncNode
	Kind    CallKind
	Go      bool // the call is a `go` statement's call
	Defer   bool // the call is a `defer` statement's call
	// Opaque records that Callees may be incomplete: the call can reach
	// functions the analysis cannot name.
	Opaque bool
	// Dynamic records a //fastcc:dynamic directive on the call's line: the
	// site is intentionally unresolved and is counted apart from Opaque.
	Dynamic bool
}

// CallStats is the program-wide call-site accounting -stats reports. Sites
// counts real calls only (conversions and builtins are excluded). Opaque
// counts indirect and interface sites the devirtualizer could not (fully)
// resolve — the tracked soundness gap. External direct calls are counted
// apart: their callees are known, just outside the program.
type CallStats struct {
	Sites       int // every function call expression
	Direct      int // statically resolved, source available
	External    int // statically resolved, no source (stdlib, export data)
	DevirtIface int // interface calls devirtualized via CHA
	DevirtFunc  int // func-value calls resolved via points-to
	Opaque      int // unresolved (or partially resolved) indirect sites
	Dynamic     int // //fastcc:dynamic-annotated intentionally-opaque sites
}

// A CallGraph indexes every FuncNode of a program.
type CallGraph struct {
	// ByObj maps declared functions to their nodes.
	ByObj map[*types.Func]*FuncNode
	// ByLit maps function literals to their nodes.
	ByLit map[*ast.FuncLit]*FuncNode
	// Nodes lists every node (declarations and literals) in deterministic
	// package/file order.
	Nodes []*FuncNode
	// Stats is the devirtualization accounting over every site.
	Stats CallStats

	cha *CHA
	pt  *PointsTo
}

// NodeOf returns the node of a declared function, or nil when the function
// has no source in the program (export-only dependency, builtin).
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.ByObj[fn.Origin()]
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{ByObj: map[*types.Func]*FuncNode{}, ByLit: map[*ast.FuncLit]*FuncNode{}}

	// First pass: create a node per declaration and per literal, so edges in
	// the second pass can resolve forward references and cross-package calls.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, Body: fd.Body, Type: fd.Type}
				if obj != nil {
					g.ByObj[obj] = node
				}
				g.Nodes = append(g.Nodes, node)
				if fd.Body == nil {
					continue
				}
				collectLits(pkg, node, fd.Body, g)
			}
		}
	}

	// Second pass: resolve the calls of every node's own body (literals are
	// excluded from their enclosing function's walk — they have nodes).
	for _, node := range g.Nodes {
		if node.Body == nil {
			continue
		}
		resolveCalls(node, g)
	}

	// Third pass: devirtualize. CHA resolves the interface sites; the
	// points-to solve (which itself consumes the direct edges laid in pass
	// two) resolves the func-value sites. Resolution and points-to are
	// mutually dependent — a func value passed as an argument at a site that
	// only resolves through devirtualization must still flow into the
	// callee's parameter — so newly resolved edges feed their argument
	// constraints back into the solver and the pair iterates to a fixpoint
	// (sets only grow, so it terminates).
	g.cha = buildCHA(pkgs)
	g.pt = buildPointsTo(pkgs, g)
	type argSeed struct {
		call   *ast.CallExpr
		callee *FuncNode
	}
	seeded := map[argSeed]bool{}
	for {
		changed := false
		for _, node := range g.Nodes {
			for i := range node.Calls {
				site := &node.Calls[i]
				if site.Kind != CallInterface && site.Kind != CallFuncValue {
					continue
				}
				g.refineSite(node, site)
				for _, callee := range site.Callees {
					key := argSeed{site.Call, callee}
					if !seeded[key] {
						seeded[key] = true
						g.pt.seedCallArgs(node.Pkg.TypesInfo, site.Call, callee)
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
		g.pt.solve()
	}

	// Final sweep: resolve the trivial tiers, apply //fastcc:dynamic
	// directives, recompute node opacity, count.
	var fset *token.FileSet
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		fset = pkg.Fset
		allFiles = append(allFiles, pkg.Files...)
	}
	dynamic := CollectLineMarkers(fset, allFiles, "dynamic")
	for _, node := range g.Nodes {
		node.Opaque = false
		for i := range node.Calls {
			site := &node.Calls[i]
			g.refineSite(node, site)
			if site.Opaque && fset != nil && MarkedAt(fset, dynamic, site.Call.Pos()) {
				site.Opaque = false
				site.Dynamic = true
			}
			if site.Opaque {
				node.Opaque = true
			}
			g.countSite(site)
		}
	}
	return g
}

// countSite accumulates one site into the graph's stats.
func (g *CallGraph) countSite(site *CallSite) {
	if site.Kind == CallOther {
		return
	}
	g.Stats.Sites++
	if site.Dynamic {
		g.Stats.Dynamic++
		return
	}
	switch site.Kind {
	case CallDirect:
		g.Stats.Direct++
	case CallExternal:
		g.Stats.External++
	case CallInterface:
		if site.Opaque {
			g.Stats.Opaque++
		} else {
			g.Stats.DevirtIface++
		}
	case CallFuncValue:
		if site.Opaque {
			g.Stats.Opaque++
		} else {
			g.Stats.DevirtFunc++
		}
	}
}

// refineSite resolves one site's may-call set through the devirtualization
// layers, rebuilding Callees, Callee and Opaque from scratch (it runs more
// than once per site during the fixpoint).
func (g *CallGraph) refineSite(node *FuncNode, site *CallSite) {
	if site.Kind == CallInterface || site.Kind == CallFuncValue {
		site.Callees = nil
		site.Callee = nil
		site.Opaque = false
	}
	switch site.Kind {
	case CallOther:
		return
	case CallDirect:
		site.Callees = []*FuncNode{site.Callee}
		return
	case CallExternal:
		// A real function without source: conservatively opaque — its body
		// may call back into the program through values handed to it.
		site.Opaque = true
		return
	}

	info := node.Pkg.TypesInfo
	switch site.Kind {
	case CallInterface:
		sel, ok := ast.Unparen(site.Call.Fun).(*ast.SelectorExpr)
		if !ok {
			site.Opaque = true
			return
		}
		recv := interfaceRecvType(info, sel)
		if recv == nil {
			site.Opaque = true
			return
		}
		fns, complete := g.cha.Implementations(recv, sel.Sel.Name)
		for _, fn := range fns {
			if n := g.ByObj[fn]; n != nil && n.Body != nil {
				site.Callees = append(site.Callees, n)
			} else {
				complete = false
			}
		}
		// An empty complete set means no program type inhabits the
		// interface — any actual call must carry a value of unseen origin.
		site.Opaque = !complete || len(site.Callees) == 0
	case CallFuncValue:
		targets, complete := g.pt.CallTargets(info, site.Call.Fun)
		for _, n := range targets {
			if n.Body != nil {
				site.Callees = append(site.Callees, n)
			} else {
				complete = false
			}
		}
		site.Opaque = !complete
	}
	if len(site.Callees) == 1 && !site.Opaque {
		site.Callee = site.Callees[0]
	}
}

// interfaceRecvType returns the (named) interface type a method selection
// dispatches on, or nil when the receiver is not an interface the CHA can
// reason about (anonymous interfaces, type parameters).
func interfaceRecvType(info *types.Info, sel *ast.SelectorExpr) types.Type {
	s := info.Selections[sel]
	if s == nil {
		return nil
	}
	recv := s.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	// Embedded interface fields dispatch on the field's interface type.
	if s.Kind() == types.MethodVal {
		// Walk the selection's index path to the embedded field when the
		// method comes through one; the final interface is what dispatches.
		t := recv
		for _, idx := range s.Index()[:len(s.Index())-1] {
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			t = st.Field(idx).Type()
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
		}
		if types.IsInterface(t) {
			recv = t
		}
	}
	if !types.IsInterface(recv) {
		return nil
	}
	if _, ok := recv.(*types.Named); !ok {
		return nil
	}
	return recv
}

// collectLits creates a node for every function literal lexically inside
// body, attributing each to its nearest enclosing function node.
func collectLits(pkg *Package, encl *FuncNode, body ast.Node, g *CallGraph) {
	var walk func(n ast.Node, encl *FuncNode)
	walk = func(n ast.Node, encl *FuncNode) {
		ast.Inspect(n, func(c ast.Node) bool {
			lit, ok := c.(*ast.FuncLit)
			if !ok {
				return true
			}
			node := &FuncNode{Lit: lit, Pkg: pkg, Encl: encl, Body: lit.Body, Type: lit.Type}
			g.ByLit[lit] = node
			g.Nodes = append(g.Nodes, node)
			walk(lit.Body, node)
			return false // children already walked with the literal as encl
		})
	}
	walk(body, encl)
}

// resolveCalls fills node.Calls from the statements of node's own body,
// stopping at nested literals. Only the direct tier resolves here; the
// devirtualization pass classifies and refines the rest.
//
// Defer and go classification is per call expression, not per statement:
// only the statement's own call is deferred — calls nested in its argument
// list run immediately at the defer/go statement, and a deferred call
// through a method value (rel := g.Release; defer rel()) is a deferred
// INDIRECT call, resolved by points-to like any other func value.
func resolveCalls(node *FuncNode, g *CallGraph) {
	info := node.Pkg.TypesInfo
	goCalls := map[*ast.CallExpr]bool{}
	deferCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // own body only; literals have their own nodes
		case *ast.GoStmt:
			goCalls[n.Call] = true
		case *ast.DeferStmt:
			deferCalls[n.Call] = true
		case *ast.CallExpr:
			site := CallSite{Call: n, Go: goCalls[n], Defer: deferCalls[n]}
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.FuncLit:
				site.Callee = g.ByLit[fun]
				site.Kind = CallDirect
			default:
				if fn := CalleeFunc(info, n); fn != nil {
					if isInterfaceMethod(fn) {
						site.Kind = CallInterface
					} else if callee := g.ByObj[fn.Origin()]; callee != nil {
						site.Callee = callee
						site.Kind = CallDirect
					} else {
						site.Kind = CallExternal
					}
				} else if IsConversionOrBuiltin(info, n) {
					site.Kind = CallOther
				} else {
					site.Kind = CallFuncValue
				}
			}
			node.Calls = append(node.Calls, site)
		}
		return true
	})
}

// isInterfaceMethod reports whether fn is an interface's abstract method.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// IsConversionOrBuiltin reports whether the call expression is a type
// conversion or a builtin call — the two call forms that are not function
// calls and so never make a node opaque.
func IsConversionOrBuiltin(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch info.Uses[fun].(type) {
		case *types.Builtin, *types.TypeName:
			return true
		}
	case *ast.SelectorExpr:
		if _, ok := info.Uses[fun.Sel].(*types.TypeName); ok {
			return true
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.StructType, *ast.InterfaceType, *ast.StarExpr:
		return true
	case *ast.IndexExpr: // generic instantiation F[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isType := info.Uses[id].(*types.TypeName); isType {
				return true
			}
		}
	}
	return false
}
