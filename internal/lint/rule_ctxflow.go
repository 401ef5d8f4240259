package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxFlow enforces context threading: a function that already receives a
// context.Context must pass it on, not mint a fresh root or drop it.
// Two findings inside ctx-holding functions:
//
//   - a call to context.Background() or context.TODO(): the new root
//     detaches the callee from the caller's deadline and cancellation.
//     The one sanctioned shape is the nil-guard default
//     `if ctx == nil { ctx = context.Background() }`, which only runs
//     when there is no caller context to lose;
//   - a literal nil passed where a callee declares a context.Context
//     parameter — same detachment, one level down.
//
// Each declaration is checked on its own, from its own signature.
type ctxFlow struct{}

func (ctxFlow) Name() string { return "ctx-flow" }
func (ctxFlow) Doc() string {
	return "functions holding a ctx must thread it: no fresh Background/TODO, no nil ctx args"
}

func (ctxFlow) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	funcDecls(p, func(fd *ast.FuncDecl, fn *types.Func) {
		params := fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if isContextType(params.At(i).Type()) {
				checkCtxFlow(p, fd, fn, report)
				return
			}
		}
	})
}

// ctxParamVar returns the *types.Var of fd's context parameter, nil when
// the parameter is unnamed or blank.
func ctxParamVar(p *Package, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := p.Info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// nilGuardRanges collects the body spans of `if ctx == nil { ... }`
// statements — the sanctioned place to default a missing context.
func nilGuardRanges(p *Package, body *ast.BlockStmt, ctxVar *types.Var) [][2]token.Pos {
	if ctxVar == nil {
		return nil
	}
	var spans [][2]token.Pos
	isCtx := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && p.Info.Uses[id] == ctxVar
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		_, isNilObj := p.Info.Uses[id].(*types.Nil)
		return isNilObj
	}
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ast.Unparen(ifStmt.Cond).(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		if (isCtx(cond.X) && isNil(cond.Y)) || (isNil(cond.X) && isCtx(cond.Y)) {
			spans = append(spans, [2]token.Pos{ifStmt.Body.Pos(), ifStmt.Body.End()})
		}
		return true
	})
	return spans
}

func inSpans(spans [][2]token.Pos, pos token.Pos) bool {
	for _, s := range spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

func checkCtxFlow(p *Package, fd *ast.FuncDecl, fn *types.Func, report func(pos token.Pos, format string, args ...any)) {
	guards := nilGuardRanges(p, fd.Body, ctxParamVar(p, fd))
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(p, call)
		if callee == nil {
			return true
		}
		if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "context" &&
			(callee.Name() == "Background" || callee.Name() == "TODO") {
			if !inSpans(guards, call.Pos()) {
				report(call.Pos(),
					"context.%s() called in %s, which already has a ctx parameter; thread the caller's ctx instead",
					callee.Name(), fn.FullName())
			}
			return true
		}
		// Literal nil where the callee wants a context.
		if sig, ok := callee.Type().(*types.Signature); ok {
			n := sig.Params().Len()
			for i, arg := range call.Args {
				pi := i
				if sig.Variadic() && pi >= n-1 {
					pi = n - 1
				}
				if pi >= n || !isContextType(sig.Params().At(pi).Type()) {
					continue
				}
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if _, isNilObj := p.Info.Uses[id].(*types.Nil); isNilObj {
						report(arg.Pos(),
							"nil passed as the context argument of %s from ctx-holding %s; pass ctx",
							callee.Name(), fn.FullName())
					}
				}
			}
		}
		return true
	})
}
