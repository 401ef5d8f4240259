package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// astExhaustive keeps the SKQL planner and executor honest as the grammar
// grows. The sklang AST is a closed sum: a small interface (Stmt) with one
// exported node type per grammar form. Every type switch over such an
// interface is a dispatch over the whole language — PlanStmt mapping
// statements to algorithms, renderers walking trees — and a new grammar
// form silently falling through one of them is exactly the bug that parses
// fine, plans as nothing, and answers an empty result. So each such switch
// must either name every exported implementing type or carry an explicit
// default that returns a typed error (making "unknown statement form" a
// loud, typed failure rather than a silent drop).
//
// The rule keys on the interface's declaring package being named "sklang",
// so it follows the AST wherever it is switched on (planner, executor,
// serving layers) without dragging unrelated type switches in.
type astExhaustive struct{}

func (astExhaustive) Name() string { return "ast-exhaustive" }
func (astExhaustive) Doc() string {
	return "a type switch over a sklang AST interface must cover every exported node type or default to returning a typed error"
}

func (astExhaustive) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			if iface := switchedSklangIface(p, sw); iface != nil {
				checkSwitch(p, sw, iface, report)
			}
			return true
		})
	}
}

// switchedSklangIface resolves the interface a type switch dispatches
// over, when that interface is declared in a package named "sklang"; nil
// for every other switch.
func switchedSklangIface(p *Package, sw *ast.TypeSwitchStmt) *types.Named {
	var subject ast.Expr
	switch s := sw.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := s.X.(*ast.TypeAssertExpr); ok {
			subject = ta.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if ta, ok := s.Rhs[0].(*ast.TypeAssertExpr); ok {
				subject = ta.X
			}
		}
	}
	if subject == nil {
		return nil
	}
	tv, ok := p.Info.Types[subject]
	if !ok || tv.Type == nil {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "sklang" {
		return nil
	}
	return named
}

// checkSwitch verifies one qualifying type switch: full coverage of the
// exported implementing types, or a default clause that returns an
// error-typed value.
func checkSwitch(p *Package, sw *ast.TypeSwitchStmt, iface *types.Named, report func(pos token.Pos, format string, args ...any)) {
	impls := exportedImplementers(iface)
	covered := make(map[*types.TypeName]bool)
	var deflt *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			tv, ok := p.Info.Types[e]
			if !ok || tv.Type == nil {
				continue
			}
			t := tv.Type
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed {
				covered[named.Obj()] = true
			}
		}
	}
	if deflt != nil {
		if !returnsError(p, deflt) {
			report(deflt.Pos(),
				"default clause of a switch over %s.%s does not return a typed error; an unknown node would be silently dropped",
				iface.Obj().Pkg().Name(), iface.Obj().Name())
		}
		return
	}
	var missing []string
	for _, tn := range impls {
		if !covered[tn] {
			missing = append(missing, tn.Name())
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		report(sw.Pos(),
			"type switch over %s.%s misses %s; cover every exported node type or add a default returning a typed error",
			iface.Obj().Pkg().Name(), iface.Obj().Name(), strings.Join(missing, ", "))
	}
}

// exportedImplementers enumerates the exported non-interface types in the
// interface's declaring package that implement it (directly or through a
// pointer receiver) — the closed sum the switch must cover.
func exportedImplementers(iface *types.Named) []*types.TypeName {
	it := iface.Underlying().(*types.Interface)
	scope := iface.Obj().Pkg().Scope()
	var out []*types.TypeName
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn == iface.Obj() {
			continue
		}
		t := tn.Type()
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			out = append(out, tn)
		}
	}
	return out
}

// returnsError reports whether the clause body contains a return whose
// results include an error-typed value (a typed refusal, not a bare or
// nil-only return).
func returnsError(p *Package, cc *ast.CaseClause) bool {
	found := false
	for _, stmt := range cc.Body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				tv, ok := p.Info.Types[res]
				if !ok || tv.Type == nil {
					continue
				}
				if tv.IsNil() {
					continue
				}
				if isErrorType(tv.Type) {
					found = true
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return found
}
