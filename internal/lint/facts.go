package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Phase 1 of the analyzer: walk every loaded package once and export
// per-function facts keyed by *types.Func, plus the module-wide call graph
// (callgraph.go). Module rules consume these instead of re-walking ASTs,
// and `sklint -facts` dumps them for debugging. Fact export is
// deterministic: every slice is ordered by source position and every
// iteration that feeds output goes through sorted function IDs, so the
// dump — and therefore the diagnostics derived from it — is independent
// of package load order.

// HotpathDirective marks a function whose steady-state execution must not
// allocate. Written as a `//sklint:hotpath` comment in the function's doc
// group; the property is transitive over the static call graph.
const HotpathDirective = "//sklint:hotpath"

// AllocKind classifies a potential allocation site.
type AllocKind string

const (
	AllocMake        AllocKind = "make"
	AllocNew         AllocKind = "new"
	AllocAppend      AllocKind = "append"
	AllocComposite   AllocKind = "composite-lit"
	AllocClosure     AllocKind = "closure"
	AllocMapWrite    AllocKind = "map-write"
	AllocStringCat   AllocKind = "string-concat"
	AllocConvert     AllocKind = "conversion"
	AllocBox         AllocKind = "iface-box"
	AllocExtCall     AllocKind = "ext-call"
	AllocDynamicCall AllocKind = "dynamic-call"
)

// AllocSite is one potential allocation inside a function body.
type AllocSite struct {
	Pos  token.Pos
	Kind AllocKind
	Desc string // short human label, e.g. "append", "fmt.Errorf"
}

// Call is one call site inside a function body. Callee is the statically
// resolved target when the call names a concrete function or method
// (module-local or external); Dynamic marks calls through function values
// and interface methods, whose target the analyzer cannot pin down
// (Callee still carries the interface method object when known, for
// signature-level reasoning like ctx-flow).
type Call struct {
	Pos     token.Pos
	Expr    *ast.CallExpr
	Callee  *types.Func
	Dynamic bool
}

// ResourceOp is one acquire or release of a pooled resource (an object
// epoch pin or a pooled session), identified by the resource spec table in
// rule_pinrelease.go.
type ResourceOp struct {
	Pos      token.Pos
	Resource string // spec name, e.g. "objstore-pin"
	Acquire  bool
}

// FuncFacts is the exported phase-1 knowledge about one function.
type FuncFacts struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl

	// Hotpath is set when the declaration carries //sklint:hotpath.
	Hotpath bool
	// CtxParam is the index of the first context.Context parameter in the
	// signature (receiver excluded), or -1.
	CtxParam int
	// Allocs are the function's direct potential allocation sites.
	Allocs []AllocSite
	// Calls are the function's call sites in source order.
	Calls []Call
	// Resources are the acquire/release operations the body performs.
	Resources []ResourceOp
}

// Module is the phase-1 output: every loaded package, the per-function
// facts, and the call graph over them.
type Module struct {
	Pkgs  []*Package
	Funcs map[*types.Func]*FuncFacts
	Graph *CallGraph
}

// FuncID returns the stable identity of a function used in fact dumps and
// baseline keys: the type-qualified FullName, e.g.
// "(*surfknn/internal/core.Session).rank" or "surfknn/internal/graph.Dijkstra".
func FuncID(fn *types.Func) string { return fn.FullName() }

// BuildModule runs phase 1 over the packages.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{Pkgs: pkgs, Funcs: make(map[*types.Func]*FuncFacts)}
	for _, p := range pkgs {
		if p.Pkg == nil {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m.Funcs[obj] = buildFuncFacts(p, fd, obj)
			}
		}
	}
	m.Graph = buildCallGraph(m)
	return m
}

// SortedFuncs returns the module's functions ordered by FuncID —
// the deterministic iteration order for dumps and module rules.
func (m *Module) SortedFuncs() []*FuncFacts {
	out := make([]*FuncFacts, 0, len(m.Funcs))
	for _, ff := range m.Funcs {
		out = append(out, ff)
	}
	sort.Slice(out, func(i, j int) bool { return FuncID(out[i].Fn) < FuncID(out[j].Fn) })
	return out
}

// FactsDump renders the module facts as a deterministic text listing (the
// `sklint -facts` debugging view).
func (m *Module) FactsDump() string {
	var b strings.Builder
	for _, ff := range m.SortedFuncs() {
		fmt.Fprintf(&b, "%s:", FuncID(ff.Fn))
		if ff.Hotpath {
			b.WriteString(" hotpath")
		}
		if ff.CtxParam >= 0 {
			fmt.Fprintf(&b, " ctx=%d", ff.CtxParam)
		}
		fmt.Fprintf(&b, " allocs=%d calls=%d", len(ff.Allocs), len(ff.Calls))
		b.WriteString("\n")
		for _, a := range ff.Allocs {
			fmt.Fprintf(&b, "  alloc %-13s %s\n", a.Kind, a.Desc)
		}
		for _, r := range ff.Resources {
			op := "release"
			if r.Acquire {
				op = "acquire"
			}
			fmt.Fprintf(&b, "  %s %s\n", op, r.Resource)
		}
		for _, c := range ff.Calls {
			switch {
			case c.Dynamic && c.Callee != nil:
				fmt.Fprintf(&b, "  call  dynamic %s\n", FuncID(c.Callee))
			case c.Dynamic:
				b.WriteString("  call  dynamic\n")
			default:
				fmt.Fprintf(&b, "  call  %s\n", FuncID(c.Callee))
			}
		}
	}
	return b.String()
}

func buildFuncFacts(p *Package, fd *ast.FuncDecl, obj *types.Func) *FuncFacts {
	ff := &FuncFacts{Fn: obj, Pkg: p, Decl: fd, CtxParam: -1, Hotpath: hasHotpathDirective(fd)}
	sig := obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			ff.CtxParam = i
			break
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			ff.recordCall(p, e)
		case *ast.CompositeLit:
			ff.recordComposite(p, e)
		case *ast.FuncLit:
			ff.addAlloc(e.Pos(), AllocClosure, "func literal")
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringExpr(p, e) {
				ff.addAlloc(e.Pos(), AllocStringCat, "string +")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
					ff.addAlloc(e.Pos(), AllocComposite, "&composite literal")
				}
			}
		case *ast.AssignStmt:
			ff.recordAssign(p, e)
		case *ast.GoStmt:
			ff.addAlloc(e.Pos(), AllocClosure, "go statement")
		}
		return true
	})
	ff.Resources = collectResourceOps(p, fd)
	return ff
}

func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == HotpathDirective {
			return true
		}
	}
	return false
}

func (ff *FuncFacts) addAlloc(pos token.Pos, kind AllocKind, desc string) {
	ff.Allocs = append(ff.Allocs, AllocSite{Pos: pos, Kind: kind, Desc: desc})
}

// extAllocPkgs are non-module packages whose exported calls are treated as
// allocating on a hot path: formatting, reflection-driven sorting, string
// building and encoders all allocate by construction. Stdlib calls outside
// this set (math, sync/atomic, time arithmetic, binary.LittleEndian
// loads/stores, ...) are assumed allocation-free.
var extAllocPkgs = map[string]bool{
	"fmt": true, "strings": true, "bytes": true, "sort": true,
	"errors": true, "reflect": true, "regexp": true,
	"container/list": true, "container/heap": true, "container/ring": true,
	"encoding/json": true, "encoding/gob": true, "encoding/base64": true,
	"strconv": true, "os": true, "io": true, "bufio": true,
}

func (ff *FuncFacts) recordCall(p *Package, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fun].(type) {
		case *types.Builtin:
			ff.recordBuiltin(obj.Name(), call)
			return
		case *types.TypeName:
			ff.recordConversion(p, call)
			return
		case *types.Func:
			ff.addCallTo(p, call, obj)
			return
		case *types.Var: // call through a function-typed variable
			ff.Calls = append(ff.Calls, Call{Pos: call.Pos(), Expr: call, Dynamic: true})
			ff.addAlloc(call.Pos(), AllocDynamicCall, "call through func value "+fun.Name)
			return
		}
	case *ast.SelectorExpr:
		switch obj := p.Info.Uses[fun.Sel].(type) {
		case *types.TypeName:
			ff.recordConversion(p, call)
			return
		case *types.Func:
			ff.addCallTo(p, call, obj)
			return
		case *types.Var:
			ff.Calls = append(ff.Calls, Call{Pos: call.Pos(), Expr: call, Dynamic: true})
			ff.addAlloc(call.Pos(), AllocDynamicCall, "call through func value "+fun.Sel.Name)
			return
		}
	case *ast.ArrayType, *ast.MapType, *ast.InterfaceType, *ast.StarExpr, *ast.FuncType, *ast.ChanType:
		ff.recordConversion(p, call)
		return
	case *ast.FuncLit:
		// Immediately invoked literal: the FuncLit case of the walk
		// already recorded the closure; the call itself is static enough.
		return
	}
	// Anything else (call of a call's result, index expression, ...) is a
	// dynamic call.
	ff.Calls = append(ff.Calls, Call{Pos: call.Pos(), Expr: call, Dynamic: true})
	ff.addAlloc(call.Pos(), AllocDynamicCall, "dynamic call")
}

// addCallTo records a resolved call and derives its allocation facts:
// interface-method dispatch, known-allocating external packages, and
// interface boxing at the argument boundary.
func (ff *FuncFacts) addCallTo(p *Package, call *ast.CallExpr, fn *types.Func) {
	sig, _ := fn.Type().(*types.Signature)
	dynamic := false
	if sig != nil && sig.Recv() != nil {
		if _, iface := sig.Recv().Type().Underlying().(*types.Interface); iface {
			dynamic = true
		}
	}
	ff.Calls = append(ff.Calls, Call{Pos: call.Pos(), Expr: call, Callee: fn, Dynamic: dynamic})
	if dynamic {
		ff.addAlloc(call.Pos(), AllocDynamicCall, "interface call "+fn.Name())
		return
	}
	if fn.Pkg() != nil && extAllocPkgs[fn.Pkg().Path()] {
		ff.addAlloc(call.Pos(), AllocExtCall, fn.Pkg().Name()+"."+fn.Name())
	}
	ff.recordBoxing(p, call, sig)
}

// recordBoxing flags arguments boxed into interface parameters: a concrete
// value passed where the callee takes an interface is wrapped in a heap
// cell (small-integer and pointer cases aside, which Go may stack-box;
// the hot path should not rely on that).
func (ff *FuncFacts) recordBoxing(p *Package, call *ast.CallExpr, sig *types.Signature) {
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-arg boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, iface := pt.Underlying().(*types.Interface); !iface {
			continue
		}
		tv, ok := p.Info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if tv.IsNil() {
			continue
		}
		if _, argIface := tv.Type.Underlying().(*types.Interface); argIface {
			continue
		}
		ff.addAlloc(arg.Pos(), AllocBox, "argument boxed into "+pt.String())
	}
}

func (ff *FuncFacts) recordBuiltin(name string, call *ast.CallExpr) {
	switch name {
	case "make":
		ff.addAlloc(call.Pos(), AllocMake, "make")
	case "new":
		ff.addAlloc(call.Pos(), AllocNew, "new")
	case "append":
		ff.addAlloc(call.Pos(), AllocAppend, "append")
	}
}

// recordConversion flags conversions that copy their operand to the heap:
// string <-> []byte/[]rune round trips.
func (ff *FuncFacts) recordConversion(p *Package, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	dst, ok := p.Info.Types[call.Fun]
	if !ok {
		return
	}
	src, ok := p.Info.Types[call.Args[0]]
	if !ok || src.Type == nil || dst.Type == nil {
		return
	}
	if isStringByteConv(dst.Type, src.Type) || isStringByteConv(src.Type, dst.Type) {
		ff.addAlloc(call.Pos(), AllocConvert, dst.Type.String()+" conversion")
	}
}

func isStringByteConv(a, b types.Type) bool {
	ab, ok := a.Underlying().(*types.Basic)
	if !ok || ab.Info()&types.IsString == 0 {
		return false
	}
	sl, ok := b.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	el, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (el.Kind() == types.Byte || el.Kind() == types.Rune || el.Kind() == types.Uint8 || el.Kind() == types.Int32)
}

// recordComposite flags composite literals that reach the heap: slice and
// map literals always allocate their backing store; address-taken struct
// literals allocate unless escape analysis proves otherwise (the hot path
// must not bet on that). Plain value struct/array literals are stack
// values and are not flagged.
func (ff *FuncFacts) recordComposite(p *Package, lit *ast.CompositeLit) {
	tv, ok := p.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		ff.addAlloc(lit.Pos(), AllocComposite, "slice literal")
	case *types.Map:
		ff.addAlloc(lit.Pos(), AllocComposite, "map literal")
	}
}

// recordAssign flags map writes: `m[k] = v` may grow m's buckets.
func (ff *FuncFacts) recordAssign(p *Package, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		tv, ok := p.Info.Types[idx.X]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			ff.addAlloc(lhs.Pos(), AllocMapWrite, "map write")
		}
	}
}

func isStringExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
