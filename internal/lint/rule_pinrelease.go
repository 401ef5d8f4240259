package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pinRelease proves resource pairing: every objstore.Store.Pin and
// TerrainDB.AcquireSession must reach its matching Release on every path
// out of the acquiring function — early returns and explicit panics
// included. An unreleased epoch pin blocks reclamation forever (LiveEpochs
// grows without bound under updates); an unreleased session never returns
// to the pool.
//
// The analysis is intra-procedural over a path-sensitive walk of the
// function body: acquired values are tracked per local variable, branches
// are analyzed independently and merged pessimistically (held on any
// surviving path = held), and ownership transfers end tracking — storing
// the value in a field or slice, passing it to another call, returning
// it, or capturing it in a closure all hand responsibility elsewhere
// (cross-function pairing is the callee's obligation, checked when that
// callee is analyzed).
//
// Two findings:
//
//   - a path (return, panic, or function end) reached while a resource is
//     held with no deferred release — the leak the rule exists for;
//   - a resource held without a deferred release across a call through a
//     function value (a callback parameter, a stored func field): the
//     analyzer cannot see that code, and if it panics the resource leaks
//     past every recover above. Releasing via defer is the only
//     panic-safe pairing.
//
// Limitations, accepted for simplicity: break/continue paths are not
// tracked out of loops, and a release under a condition the analyzer
// cannot correlate with the acquire may need a //lint:ignore with the
// invariant spelled out.
type pinRelease struct{}

func (pinRelease) Name() string { return "pin-release" }
func (pinRelease) Doc() string {
	return "acquired epochs/sessions must be released on all paths; defer for panic safety"
}

// resourceSpec describes one acquire/release pairing. Matching is by
// receiver type name + method name rather than import path, so the
// testdata fixture can model the protocol with local types; within this
// module the names are unambiguous.
type resourceSpec struct {
	name       string // diagnostic label
	recvType   string // named type declaring the acquire method
	acquire    string // acquire method name
	resultType string // named type of the acquired value
	release    string // release method name
	// onResult: the release is a method on the acquired value
	// (Epoch.Release). Otherwise it is a method on the acquiring
	// receiver's type taking the value as an argument
	// (TerrainDB.Release(sess)).
	onResult bool
}

var resourceSpecs = []resourceSpec{
	{name: "epoch pin", recvType: "Store", acquire: "Pin", resultType: "Epoch", release: "Release", onResult: true},
	{name: "pooled session", recvType: "TerrainDB", acquire: "AcquireSession", resultType: "Session", release: "Release"},
}

func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// methodCallee resolves a call to a concrete method and its receiver type
// name; ok is false for anything else.
func methodCallee(p *Package, call *ast.CallExpr) (fn *types.Func, recvType string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, isFn := p.Info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return nil, "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return nil, "", false
	}
	return fn, namedTypeName(sig.Recv().Type()), true
}

// acquireSpec matches a call against the acquire table.
func acquireSpec(p *Package, call *ast.CallExpr) (*resourceSpec, bool) {
	fn, recv, ok := methodCallee(p, call)
	if !ok {
		return nil, false
	}
	for i := range resourceSpecs {
		s := &resourceSpecs[i]
		if fn.Name() == s.acquire && recv == s.recvType {
			return s, true
		}
	}
	return nil, false
}

// acquiresResource reports whether fd's body acquires any tracked resource;
// only those bodies are walked path by path.
func acquiresResource(p *Package, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			_, found = acquireSpec(p, call)
		}
		return !found
	})
	return found
}

func (pinRelease) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	funcDecls(p, func(fd *ast.FuncDecl, _ *types.Func) {
		if !acquiresResource(p, fd) {
			return
		}
		a := &prAnalyzer{p: p, report: report}
		st := newPRState()
		if !a.stmts(fd.Body.List, st) {
			a.leakCheck(st, fd.Body.End(), "function end")
		}
	})
}

// heldRes is one tracked acquired resource.
type heldRes struct {
	spec     *resourceSpec
	pos      token.Pos // acquire site
	deferred bool      // a deferred release covers it on every exit
	reported bool      // leak already reported (dedupe across paths)
}

// prState is the abstract state of the path walk: which locals hold an
// unreleased resource. heldRes values are shared across branch clones so
// dedup and defer marks propagate; the maps themselves are per-path.
type prState struct {
	held map[*types.Var]*heldRes
}

func newPRState() *prState { return &prState{held: make(map[*types.Var]*heldRes)} }

func (st *prState) clone() *prState {
	c := newPRState()
	for v, h := range st.held {
		c.held[v] = h
	}
	return c
}

// merge unions the surviving branch states pessimistically: a resource
// held on any path is held.
func mergeStates(states ...*prState) *prState {
	out := newPRState()
	for _, st := range states {
		if st == nil {
			continue
		}
		for v, h := range st.held {
			out.held[v] = h
		}
	}
	return out
}

type prAnalyzer struct {
	p      *Package
	report func(pos token.Pos, format string, args ...any)
}

func (a *prAnalyzer) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj, ok := a.p.Info.Defs[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := a.p.Info.Uses[id].(*types.Var); ok {
		return obj
	}
	return nil
}

// leakCheck reports every held, undeferred resource at a path exit.
func (a *prAnalyzer) leakCheck(st *prState, exit token.Pos, how string) {
	for _, h := range st.held {
		if h.deferred || h.reported {
			continue
		}
		h.reported = true
		exitPos := a.p.Fset.Position(exit)
		a.report(h.pos, "%s acquired here is not released on every path (%s at line %d); call %s or defer it",
			h.spec.name, how, exitPos.Line, h.spec.release)
	}
}

// stmts walks a statement list, returning true when every path through it
// terminates (return/panic) — the caller then discards the state.
func (a *prAnalyzer) stmts(list []ast.Stmt, st *prState) bool {
	for _, s := range list {
		if a.stmt(s, st) {
			return true
		}
	}
	return false
}

func (a *prAnalyzer) stmt(s ast.Stmt, st *prState) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		a.assign(s, st)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if a.isPanicCall(call) {
				a.exprs(call.Args, st)
				a.leakCheck(st, s.Pos(), "panic")
				return true
			}
		}
		a.expr(s.X, st)
	case *ast.DeferStmt:
		a.deferStmt(s, st)
	case *ast.GoStmt:
		// The spawned goroutine escapes everything it captures.
		a.expr(s.Call.Fun, st)
		a.exprs(s.Call.Args, st)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if v := a.localVar(res); v != nil {
				delete(st.held, v) // ownership transferred to the caller
				continue
			}
			a.expr(res, st)
		}
		a.leakCheck(st, s.Pos(), "return")
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			a.stmt(s.Init, st)
		}
		a.expr(s.Cond, st)
		thenSt := st.clone()
		elseSt := st.clone()
		thenDone := a.stmts(s.Body.List, thenSt)
		elseDone := false
		if s.Else != nil {
			elseDone = a.stmt(s.Else, elseSt)
		}
		switch {
		case thenDone && elseDone:
			return true
		case thenDone:
			*st = *elseSt
		case elseDone:
			*st = *thenSt
		default:
			*st = *mergeStates(thenSt, elseSt)
		}
	case *ast.BlockStmt:
		return a.stmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			a.stmt(s.Init, st)
		}
		if s.Cond != nil {
			a.expr(s.Cond, st)
		}
		a.loopBody(s.Body, st)
		if s.Post != nil {
			a.stmt(s.Post, st)
		}
	case *ast.RangeStmt:
		a.expr(s.X, st)
		a.loopBody(s.Body, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			a.stmt(s.Init, st)
		}
		if s.Tag != nil {
			a.expr(s.Tag, st)
		}
		a.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			a.stmt(s.Init, st)
		}
		a.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		a.commClauses(s.Body, st)
	case *ast.LabeledStmt:
		return a.stmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave this block without leaving the
		// function; held resources flow to code the walk does not model.
		// Treat the path as ended here (documented limitation).
		return true
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				a.expr(e, st)
				return false
			}
			return true
		})
	}
	return false
}

// loopBody analyzes a loop body once and merges with the zero-iteration
// state. A resource acquired inside the body must be released (or
// deferred) by the end of the iteration — the next iteration acquires a
// fresh one and the previous would be lost.
func (a *prAnalyzer) loopBody(body *ast.BlockStmt, st *prState) {
	bodySt := st.clone()
	pre := make(map[*types.Var]bool, len(st.held))
	for v := range st.held {
		pre[v] = true
	}
	terminated := a.stmts(body.List, bodySt)
	if !terminated {
		for v, h := range bodySt.held {
			if pre[v] || h.deferred || h.reported {
				continue
			}
			h.reported = true
			a.report(h.pos, "%s acquired inside the loop body is still held at the end of the iteration; release it before looping",
				h.spec.name)
		}
		*st = *mergeStates(st, bodySt)
	}
}

func (a *prAnalyzer) caseClauses(body *ast.BlockStmt, st *prState) {
	var surviving []*prState
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseSt := st.clone()
		a.exprs(cc.List, caseSt)
		if !a.stmts(cc.Body, caseSt) {
			surviving = append(surviving, caseSt)
		}
	}
	if !hasDefault {
		surviving = append(surviving, st.clone())
	}
	*st = *mergeStates(surviving...)
}

func (a *prAnalyzer) commClauses(body *ast.BlockStmt, st *prState) {
	var surviving []*prState
	for _, c := range body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		caseSt := st.clone()
		if cc.Comm != nil {
			a.stmt(cc.Comm, caseSt)
		}
		if !a.stmts(cc.Body, caseSt) {
			surviving = append(surviving, caseSt)
		}
	}
	*st = *mergeStates(surviving...)
}

// assign handles acquires (tracking the assigned local) and escapes
// (anything else the tracked value is stored into).
func (a *prAnalyzer) assign(s *ast.AssignStmt, st *prState) {
	// Single-call RHS: an acquire starts tracking its destination.
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if spec, ok := acquireSpec(a.p, call); ok {
				a.expr(call.Fun, st)
				a.exprs(call.Args, st)
				dst := s.Lhs[0]
				if id, isIdent := ast.Unparen(dst).(*ast.Ident); isIdent {
					if id.Name == "_" {
						a.report(call.Pos(), "%s acquired but discarded; it can never be released", spec.name)
						return
					}
					if v := a.localVar(id); v != nil {
						st.held[v] = &heldRes{spec: spec, pos: call.Pos()}
						// Any remaining LHS are plain writes.
						for _, l := range s.Lhs[1:] {
							a.lhs(l, st)
						}
						return
					}
				}
				// Assigned into a field/index: ownership is transferred to
				// that structure (e.g. Session.view keeps its pin across
				// the query and releases it in endQuery).
				for _, l := range s.Lhs {
					a.lhs(l, st)
				}
				return
			}
		}
	}
	for _, r := range s.Rhs {
		a.expr(r, st)
	}
	for _, l := range s.Lhs {
		a.lhs(l, st)
	}
}

// lhs processes an assignment destination: writing *over* a tracked var
// ends its tracking (the value is gone; if it was still held that is a
// leak the walk can no longer see — rare enough to accept); destinations
// that merely contain expressions are scanned.
func (a *prAnalyzer) lhs(e ast.Expr, st *prState) {
	if v := a.localVar(e); v != nil {
		delete(st.held, v)
		return
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	a.expr(e, st)
}

func (a *prAnalyzer) deferStmt(s *ast.DeferStmt, st *prState) {
	// defer v.Release() / defer db.Release(sess): the matching release is
	// registered for every exit, panics included.
	if v, ok := a.releaseTarget(s.Call, st); ok {
		if h := st.held[v]; h != nil {
			h.deferred = true
		}
		return
	}
	// defer func() { ... }(): a closure releasing a tracked var covers it;
	// any other captured tracked var escapes into the closure.
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		covered := map[*types.Var]bool{}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if v, ok := a.releaseTarget(call, st); ok {
				covered[v] = true
			}
			return true
		})
		for v := range covered {
			if h := st.held[v]; h != nil {
				h.deferred = true
			}
		}
		a.closureEscapes(lit, st, covered)
		return
	}
	// Some other deferred call: its arguments escape.
	a.expr(s.Call.Fun, st)
	a.exprs(s.Call.Args, st)
}

// releaseTarget reports whether call releases a tracked variable,
// returning that variable.
func (a *prAnalyzer) releaseTarget(call *ast.CallExpr, st *prState) (*types.Var, bool) {
	fn, recv, ok := methodCallee(a.p, call)
	if !ok {
		return nil, false
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	for i := range resourceSpecs {
		s := &resourceSpecs[i]
		if fn.Name() != s.release {
			continue
		}
		if s.onResult {
			if recv != s.resultType {
				continue
			}
			if v := a.localVar(sel.X); v != nil {
				if h := st.held[v]; h != nil && h.spec.name == s.name {
					return v, true
				}
			}
			continue
		}
		if recv != s.recvType {
			continue
		}
		for _, arg := range call.Args {
			if v := a.localVar(arg); v != nil {
				if h := st.held[v]; h != nil && h.spec.name == s.name {
					return v, true
				}
			}
		}
	}
	return nil, false
}

func (a *prAnalyzer) isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := a.p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// dynamicCall reports a call whose target is a function value — code the
// analyzer cannot see, and the panic hazard the defer finding warns
// about. Interface-method dispatch is deliberately not included: within
// this module those targets are implementation methods with their own
// analysis, and flagging every ctx.Err() would drown the signal.
func (a *prAnalyzer) dynamicCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, isVar := a.p.Info.Uses[fun].(*types.Var)
		return isVar
	case *ast.SelectorExpr:
		_, isVar := a.p.Info.Uses[fun.Sel].(*types.Var)
		return isVar
	}
	return false
}

func (a *prAnalyzer) exprs(list []ast.Expr, st *prState) {
	for _, e := range list {
		a.expr(e, st)
	}
}

// expr scans an expression for releases, escapes and panic-unsafe
// dynamic calls.
func (a *prAnalyzer) expr(e ast.Expr, st *prState) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		a.call(e, st)
	case *ast.Ident:
		// A bare use outside the allowed contexts hands the value to code
		// the walk cannot follow: stop tracking, report nothing.
		if v := a.localVar(e); v != nil {
			delete(st.held, v)
		}
	case *ast.SelectorExpr:
		// v.Field reads do not move ownership.
		if a.localVar(e.X) != nil {
			return
		}
		a.expr(e.X, st)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if v := a.localVar(e.X); v != nil {
				delete(st.held, v) // address escapes
				return
			}
		}
		a.expr(e.X, st)
	case *ast.BinaryExpr:
		a.expr(e.X, st)
		a.expr(e.Y, st)
	case *ast.ParenExpr:
		a.expr(e.X, st)
	case *ast.StarExpr:
		a.expr(e.X, st)
	case *ast.IndexExpr:
		a.expr(e.X, st)
		a.expr(e.Index, st)
	case *ast.SliceExpr:
		a.expr(e.X, st)
		a.expr(e.Low, st)
		a.expr(e.High, st)
		a.expr(e.Max, st)
	case *ast.TypeAssertExpr:
		a.expr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			a.expr(el, st)
		}
	case *ast.KeyValueExpr:
		a.expr(e.Value, st)
	case *ast.FuncLit:
		a.closureEscapes(e, st, nil)
	}
}

// call handles one call expression: release consumption, untracked
// acquires, panic-hazard dynamic calls, and argument escapes.
func (a *prAnalyzer) call(call *ast.CallExpr, st *prState) {
	if v, ok := a.releaseTarget(call, st); ok {
		delete(st.held, v)
		// Scan the remaining arguments, skipping the released variable
		// itself.
		for _, arg := range call.Args {
			if a.localVar(arg) == v {
				continue
			}
			a.expr(arg, st)
		}
		return
	}
	if spec, ok := acquireSpec(a.p, call); ok {
		// Acquire whose result is not captured by an assignment.
		a.report(call.Pos(), "result of %s.%s (%s) is not captured; it can never be released",
			spec.recvType, spec.acquire, spec.name)
	}
	if a.dynamicCall(call) {
		for _, h := range st.held {
			if h.deferred || h.reported {
				continue
			}
			h.reported = true
			a.report(h.pos, "%s acquired here is held across a call through a function value at line %d; a panic there leaks it — release with defer",
				h.spec.name, a.p.Fset.Position(call.Pos()).Line)
		}
	}
	// Receiver position keeps ownership (v.Table(), sess.MR3Ctx(...)).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if a.localVar(sel.X) == nil {
			a.expr(sel.X, st)
		}
	} else {
		a.expr(call.Fun, st)
	}
	a.exprs(call.Args, st)
}

// closureEscapes untracks every held variable a closure captures (except
// those in keep): the closure may run at any time, or never.
func (a *prAnalyzer) closureEscapes(lit *ast.FuncLit, st *prState, keep map[*types.Var]bool) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := a.p.Info.Uses[id].(*types.Var); ok && !keep[v] {
			delete(st.held, v)
		}
		return true
	})
}
