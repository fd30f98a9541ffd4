package framework

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkProgram type-checks the given sources (import path → file body) in
// order and wraps them in a Program, with in-test packages importable by
// path — a miniature of the loader's source-first importing, so these tests
// exercise the same cross-package object identity the real Load provides.
func checkProgram(t *testing.T, order []string, srcs map[string]string) *Program {
	t.Helper()
	fset := token.NewFileSet()
	local := map[string]*types.Package{}
	imp := testImporter{local: local, std: importer.Default()}
	var pkgs []*Package
	for _, path := range order {
		f, err := parser.ParseFile(fset, path+".go", srcs[path], parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		info := NewTypesInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		local[path] = pkg
		pkgs = append(pkgs, &Package{
			ImportPath: path,
			Fset:       fset,
			Files:      []*ast.File{f},
			Pkg:        pkg,
			TypesInfo:  info,
		})
	}
	return NewProgram(pkgs)
}

type testImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (ti testImporter) Import(path string) (*types.Package, error) {
	if p, ok := ti.local[path]; ok {
		return p, nil
	}
	return ti.std.Import(path)
}

// nodeNamed finds the unique FuncNode whose Name matches.
func nodeNamed(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	var found *FuncNode
	for _, n := range g.Nodes {
		if n.Name() == name {
			if found != nil {
				t.Fatalf("two nodes named %s", name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node named %s", name)
	}
	return found
}

// calleeNames renders a site's may-call set for assertions.
func calleeNames(site *CallSite) []string {
	var names []string
	for _, c := range site.Callees {
		names = append(names, c.Name())
	}
	return names
}

// siteCalling returns the unique call site in node whose callee set or call
// text involves the marker — located by the Fun expression's rendering.
func siteCalling(t *testing.T, node *FuncNode, funText string) *CallSite {
	t.Helper()
	var found *CallSite
	for i := range node.Calls {
		site := &node.Calls[i]
		if exprText(site.Call.Fun) == funText {
			if found != nil {
				t.Fatalf("two sites calling %q in %s", funText, node.Name())
			}
			found = site
		}
	}
	if found == nil {
		t.Fatalf("no site calling %q in %s", funText, node.Name())
	}
	return found
}

func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[]"
	default:
		return ""
	}
}

// TestDevirtTableDispatch is the dispatch-table shape: named kernels
// registered in a fixed array, called through an index read. The call must resolve to exactly the
// registered kernels and count as a devirtualized func-value site.
func TestDevirtTableDispatch(t *testing.T) {
	prog := checkProgram(t, []string{"kern"}, map[string]string{"kern": `package kern

type kernel func(x []float64) int

func kSum(x []float64) int { return len(x) }
func kMax(x []float64) int { return cap(x) }

var dispatchTable = [2]kernel{kSum, kMax}

func dispatch(which int, x []float64) int {
	kern := dispatchTable[which]
	return kern(x)
}
`})
	g := prog.CallGraph()
	site := siteCalling(t, nodeNamed(t, g, "dispatch"), "kern")
	if site.Kind != CallFuncValue {
		t.Fatalf("dispatch site kind = %v, want CallFuncValue", site.Kind)
	}
	if site.Opaque {
		t.Fatalf("table dispatch stayed opaque; callees = %v", calleeNames(site))
	}
	got := strings.Join(calleeNames(site), ",")
	if !strings.Contains(got, "kSum") || !strings.Contains(got, "kMax") || len(site.Callees) != 2 {
		t.Fatalf("dispatch callees = %v, want exactly {kSum, kMax}", calleeNames(site))
	}
	if g.Stats.DevirtFunc == 0 {
		t.Fatalf("DevirtFunc = 0 after resolving a table dispatch; stats %+v", g.Stats)
	}
}

// TestDevirtInterfaceCHA routes a call through a locally declared interface
// with two concrete implementations across packages: CHA must bound the
// call to exactly those two methods, using the cross-package object
// identity the source-first importer provides.
func TestDevirtInterfaceCHA(t *testing.T) {
	prog := checkProgram(t, []string{"impls", "iface"}, map[string]string{
		"impls": `package impls

type Keeper struct{ kept [][]float64 }

func (k *Keeper) Consume(b []float64) { k.kept = append(k.kept, b) }

type Summer struct{ total float64 }

func (s *Summer) Consume(b []float64) {
	for _, v := range b {
		s.total += v
	}
}
`,
		"iface": `package iface

import "impls"

type Consumer interface{ Consume(b []float64) }

func feed(c Consumer, b []float64) {
	c.Consume(b)
}

var _ = []Consumer{&impls.Keeper{}, &impls.Summer{}}
`})
	g := prog.CallGraph()
	site := siteCalling(t, nodeNamed(t, g, "feed"), "c.Consume")
	if site.Kind != CallInterface {
		t.Fatalf("feed site kind = %v, want CallInterface", site.Kind)
	}
	if site.Opaque {
		t.Fatalf("interface call stayed opaque; callees = %v", calleeNames(site))
	}
	if len(site.Callees) != 2 {
		t.Fatalf("feed callees = %v, want the two Consume implementations", calleeNames(site))
	}
	if g.Stats.DevirtIface == 0 {
		t.Fatalf("DevirtIface = 0 after CHA bounded an interface call; stats %+v", g.Stats)
	}
}

// TestDevirtGoroutineClosure launches a goroutine through a func value
// bound to a closure: the go statement's call must resolve to the literal,
// keep its Go classification, and not poison the node opaque.
func TestDevirtGoroutineClosure(t *testing.T) {
	prog := checkProgram(t, []string{"spawn"}, map[string]string{"spawn": `package spawn

func launch(shard []float64, done chan struct{}) {
	worker := func() {
		_ = shard[0]
		close(done)
	}
	go worker()
}
`})
	g := prog.CallGraph()
	node := nodeNamed(t, g, "launch")
	site := siteCalling(t, node, "worker")
	if !site.Go {
		t.Fatal("go worker() not classified as a goroutine launch")
	}
	if site.Opaque || len(site.Callees) != 1 {
		t.Fatalf("goroutine func value unresolved: opaque=%v callees=%v", site.Opaque, calleeNames(site))
	}
	if !strings.HasPrefix(site.Callees[0].Name(), "func literal") {
		t.Fatalf("goroutine callee = %s, want the captured literal", site.Callees[0].Name())
	}
	if node.Opaque {
		t.Fatal("launch marked opaque despite every site resolving")
	}
}

// TestEscapingFuncValueStaysOpaque receives a func value from a channel —
// outside the points-to model — and requires the call to stay opaque: the
// soundness gap must be reported, not papered over with an empty set.
func TestEscapingFuncValueStaysOpaque(t *testing.T) {
	prog := checkProgram(t, []string{"esc"}, map[string]string{"esc": `package esc

func drain(ch chan func(int) int) int {
	fn := <-ch
	return fn(1)
}
`})
	g := prog.CallGraph()
	node := nodeNamed(t, g, "drain")
	site := siteCalling(t, node, "fn")
	if site.Kind != CallFuncValue {
		t.Fatalf("drain site kind = %v, want CallFuncValue", site.Kind)
	}
	if !site.Opaque {
		t.Fatalf("channel-received func value resolved to %v; must stay opaque", calleeNames(site))
	}
	if !node.Opaque {
		t.Fatal("drain not marked opaque despite an unresolved indirect call")
	}
	if g.Stats.Opaque == 0 {
		t.Fatalf("Stats.Opaque = 0 with an opaque site present; stats %+v", g.Stats)
	}
}

// TestMethodValueDeferResolves is the defer-site classification fix: in
// `rel := g.release; defer rel()` the deferred call is rel's — an indirect
// call the points-to layer resolves to the bound method — while g.release
// itself (a method value, not a call) must not be misread as a deferred
// invocation of release at binding time.
func TestMethodValueDeferResolves(t *testing.T) {
	prog := checkProgram(t, []string{"guard"}, map[string]string{"guard": `package guard

type Guard struct{ n int }

func (g *Guard) acquire() { g.n++ }
func (g *Guard) release() { g.n-- }

func bracket(g *Guard) {
	g.acquire()
	rel := g.release
	defer rel()
	g.n += 2
}
`})
	g := prog.CallGraph()
	node := nodeNamed(t, g, "bracket")
	site := siteCalling(t, node, "rel")
	if !site.Defer {
		t.Fatal("defer rel() not classified as a deferred call")
	}
	if site.Kind != CallFuncValue {
		t.Fatalf("rel() kind = %v, want CallFuncValue", site.Kind)
	}
	if site.Opaque || len(site.Callees) != 1 || site.Callees[0].Name() != "release" {
		t.Fatalf("rel() resolved to %v (opaque=%v), want exactly {release}", calleeNames(site), site.Opaque)
	}
	// The acquire call is a plain direct, non-deferred site.
	acq := siteCalling(t, node, "g.acquire")
	if acq.Defer || acq.Go {
		t.Fatal("g.acquire() misclassified as deferred or goroutine")
	}
}
