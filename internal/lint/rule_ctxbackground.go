package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxBackground forbids minting root contexts inside the HTTP serving layer
// (internal/server and everything below it). A handler that reaches for
// context.Background() or context.TODO() detaches the query it runs from
// the request: the client can disconnect, the per-request deadline can
// fire, the server can drain for shutdown — and the query keeps burning a
// session and an admission slot, invisible to all of it. Every context in
// the serving layer must descend from *http.Request.Context() (via
// context.WithTimeout / WithCancel / WithDeadline), so cancellation
// propagates end to end.
//
// The rule scopes on the import path (see underDir); main packages
// (skserve's signal.NotifyContext root) and the engine's nil-context
// conveniences are untouched.
type ctxBackground struct{}

func (ctxBackground) Name() string { return "ctx-background" }
func (ctxBackground) Doc() string {
	return "context.Background/TODO in the server package orphans the query from request cancellation; derive from r.Context()"
}

func (ctxBackground) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !underDir(p.ImportPath, "internal/server") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := rootContextCall(p, call)
			if !ok {
				return true
			}
			report(call.Pos(),
				"context.%s() severs the query from request cancellation and shutdown drain; derive the context from r.Context()", name)
			return true
		})
	}
}

// rootContextCall reports whether call is context.Background() or
// context.TODO() from the standard library's context package, resolved
// through the type information so an import alias cannot hide it.
func rootContextCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := p.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	switch fn.Name() {
	case "Background", "TODO":
		return fn.Name(), true
	}
	return "", false
}
