// Package lint implements sklint, the repo-specific static analyzer.
//
// MR3's pruning correctness rests on invariants the Go type system cannot
// express: surface-distance lower bounds must only grow and upper bounds
// only shrink across LOD refinement, every pinned object epoch and pooled
// session must be released on every path, and any silently swallowed error
// from a distance or fetch computation can turn a bound into garbage
// without a test noticing. sklint encodes the coding conventions that
// protect those invariants as machine-checked rules, run over the whole
// module by scripts/check.sh and CI.
//
// Analysis is one pass of package rules: the loader type-checks every
// package (loader.go), then each rule inspects one package at a time with
// the package's own syntax and type information. No rule needs another
// package: each guards a property that one declaration, or one package's
// unexported state, fully decides.
//
// The framework is stdlib-only (go/parser + go/types with the "source"
// importer) per the repo charter. Rules implement Rule and are registered
// in rules.go; diagnostics are position-keyed and can be suppressed with a
// `//lint:ignore <rule>[,<rule>...] <reason>` comment on the same line or
// the line directly above the offending code.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, keyed to a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Package is one loaded, type-checked package ready for analysis. Test
// files (_test.go) are excluded: the rules target library code, and test
// packages would drag external-test shadow packages into type checking.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// TypeErrors holds type-checker complaints. The gate runs go build
	// first, so these normally indicate a loader problem rather than bad
	// code; they are surfaced as "typecheck" diagnostics.
	TypeErrors []error
}

// Rule is one analysis pass over a single type-checked package.
type Rule interface {
	// Name is the short kebab-case identifier used in output and in
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description shown by `sklint -rules`.
	Doc() string
	// Check inspects the package and reports findings.
	Check(p *Package, report func(pos token.Pos, format string, args ...any))
}

// Run applies every rule to the packages and returns the surviving
// diagnostics (ignore directives applied), sorted by position.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		ignores, bad := collectIgnores(p, knownRuleNames())
		diags = append(diags, bad...)
		for _, err := range p.TypeErrors {
			diags = append(diags, Diagnostic{
				Pos:     typeErrorPos(p, err),
				Rule:    "typecheck",
				Message: err.Error(),
			})
		}
		for _, rule := range rules {
			report := func(pos token.Pos, format string, args ...any) {
				position := p.Fset.Position(pos)
				if ignores.match(position, rule.Name()) {
					return
				}
				diags = append(diags, Diagnostic{
					Pos:     position,
					Rule:    rule.Name(),
					Message: fmt.Sprintf(format, args...),
				})
			}
			rule.Check(p, report)
		}
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders diagnostics by (file, line, column, rule) — the
// stable output order of the analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
}

// typeErrorPos locates a type-checker error. Non-types.Error values carry
// no position of their own, so they fall back to the package's first file
// — a diagnostic must always name a file, or the CI annotation pointing at
// it is unroutable.
func typeErrorPos(p *Package, err error) token.Position {
	if te, ok := err.(types.Error); ok {
		return te.Fset.Position(te.Pos)
	}
	for _, f := range p.Files {
		if f.Pos().IsValid() {
			return p.Fset.Position(f.Pos())
		}
	}
	return token.Position{Filename: p.Dir}
}

// funcDecls calls fn for every function declaration of p that has a body,
// with the function it declares.
func funcDecls(p *Package, fn func(fd *ast.FuncDecl, obj *types.Func)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				fn(fd, obj)
			}
		}
	}
}

// staticCallee resolves a call that names a function or method directly
// (f(x), pkg.F(x), v.M(x)); nil for calls through function values,
// conversions, builtins and anything else. An interface method resolves
// to the interface's method object.
func staticCallee(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// errorIface is the method set of the universe error type, used by rules
// to recognise error-typed values (including concrete error
// implementations, not just the interface itself).
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface)
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
