package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// subUnregister guards registration tables against unbounded growth. A
// struct field named subs with a map type is, by repo convention, such a
// table: continuous.Monitor keys live k-NN subscriptions by id,
// objstore.Store keys update listeners. Every entry pins memory (and, for
// the monitor, a cached result set) for as long as it stays in the table,
// so each function that inserts must itself guarantee an exit path:
// either it reaches — along the package's static calls — a function
// deleting from the same field (the bounded-table idiom, Monitor.evictLocked), or
// the delete lives in a closure inside its own body (the cancel-closure
// idiom of objstore.Store.Subscribe). An insert whose cleanup depends on
// every caller remembering a later Unsubscribe is exactly the leak this
// rule flags: one forgotten cancel and the table grows forever.
//
// Matching is structural: an insert is an assignment whose target indexes
// a subs map field; a delete is the delete builtin applied to the same
// field (the same *types.Var, so equally named fields on different types
// stay distinct). Closure bodies count toward their enclosing declaration
// on both sides, which is what lets the cancel-closure idiom pass — and a
// local variable named subs is no table at all. The rule only matches
// unexported fields, so every insert and delete on a table is in the
// package that declares it, and the walk never leaves that package.
type subUnregister struct{}

func (subUnregister) Name() string { return "sub-unregister" }
func (subUnregister) Doc() string {
	return "an insert into a subs registration table must reach a delete on it (eviction or a cancel closure); caller-dependent cleanup leaks"
}

// subsMapField resolves e to a map-typed struct field named "subs",
// returning the field object and the name of the type owning the
// selector's base; nil for anything else.
func subsMapField(p *Package, e ast.Expr) (*types.Var, string) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	v, ok := p.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Name() != "subs" {
		return nil, ""
	}
	if _, isMap := v.Type().Underlying().(*types.Map); !isMap {
		return nil, ""
	}
	owner := ""
	if tv, ok := p.Info.Types[sel.X]; ok {
		owner = namedTypeName(tv.Type)
	}
	return v, owner
}

func (subUnregister) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	type insert struct {
		fn    *types.Func
		pos   token.Pos
		field *types.Var
		owner string
	}
	var inserts []insert
	deleters := make(map[*types.Var][]*types.Func)
	calls := make(map[*types.Func][]*types.Func)
	funcDecls(p, func(fd *ast.FuncDecl, fn *types.Func) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
					if !ok {
						continue
					}
					if f, owner := subsMapField(p, idx.X); f != nil {
						inserts = append(inserts, insert{fn: fn, pos: lhs.Pos(), field: f, owner: owner})
					}
				}
			case *ast.CallExpr:
				if callee := staticCallee(p, n); callee != nil {
					calls[fn] = append(calls[fn], callee)
					return true
				}
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok || len(n.Args) != 2 {
					return true
				}
				if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "delete" {
					return true
				}
				if f, _ := subsMapField(p, n.Args[0]); f != nil {
					deleters[f] = append(deleters[f], fn)
				}
			}
			return true
		})
	})
	for _, in := range inserts {
		dels := deleters[in.field]
		if len(dels) == 0 {
			report(in.pos,
				"subscription table %s.subs grows here but no function in the module ever deletes from it; bound it with eviction or return a cancel closure",
				in.owner)
			continue
		}
		if !reachesAny(calls, in.fn, dels) {
			report(in.pos,
				"subscription table %s.subs grows here and the insert path cannot reach any delete on it; cleanup is left to callers — evict here or hand back a cancel closure",
				in.owner)
		}
	}
}

// reachesAny reports whether root is one of targets or calls one of them,
// directly or through further calls recorded in calls.
func reachesAny(calls map[*types.Func][]*types.Func, root *types.Func, targets []*types.Func) bool {
	seen := map[*types.Func]bool{root: true}
	stack := []*types.Func{root}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range targets {
			if fn == t {
				return true
			}
		}
		for _, c := range calls[fn] {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}
