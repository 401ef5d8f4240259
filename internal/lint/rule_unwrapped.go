package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// unwrappedError flags fmt.Errorf calls that embed an error operand
// without the %w verb. Formatting an error with %v flattens it to text:
// callers can no longer use errors.Is / errors.As to react to sentinel
// conditions (core.ErrBadSnapshot, dem.ErrBadFormat, ...), which is how the
// I/O layers signal recoverable-vs-fatal failures to the query engine.
type unwrappedError struct{}

func (unwrappedError) Name() string { return "unwrapped-error" }
func (unwrappedError) Doc() string {
	return "fmt.Errorf embeds an error without %w; callers lose errors.Is/errors.As"
}

func (unwrappedError) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(p, call.Fun, "fmt", "Errorf") || len(call.Args) < 2 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				if tv, ok := p.Info.Types[arg]; ok && isErrorType(tv.Type) {
					report(arg.Pos(), "error operand formatted without %%w; wrap it so callers can errors.Is/errors.As")
				}
			}
			return true
		})
	}
}

// isPkgFunc reports whether fun is a selector resolving to pkg.name (by
// package path, so aliased imports are handled).
func isPkgFunc(p *Package, fun ast.Expr, pkgPath, name string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath
}
