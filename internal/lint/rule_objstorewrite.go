package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// objstoreWrite forbids direct writes into a shared object table outside
// internal/objstore. Epoch.Table (package objstore) and TerrainDB.Objects
// (package core) hand out the epoch's object slice itself, not a copy —
// that is what makes the quiesced read path bit-identical to the static
// one — so the slice is shared by every session pinning that epoch and by
// the epochs that inherit it across copy-on-write publishes. A write like
//
//	db.Objects()[0].Point = p
//	e.Table()[i] = o
//
// mutates an immutable snapshot under concurrent readers: a data race
// -race only catches when a reader happens to overlap, and a corruption
// of epochs that share the base table even when it does not. The
// sanctioned write path is objstore.Store (Upsert/Delete/ApplyAt), which
// publishes a new epoch. Package objstore itself is exempt — building the
// tables is its job.
//
// The rule flags assignments and ++/-- whose target indexes directly into
// a Table()/Objects() call result (including through field selectors).
// Writes to a copied slice are untouched: copy first, then mutate.
type objstoreWrite struct{}

func (objstoreWrite) Name() string { return "objstore-write" }
func (objstoreWrite) Doc() string {
	return "direct write into a shared object table (Epoch.Table / TerrainDB.Objects); publish updates through objstore.Store or copy the slice first"
}

func (objstoreWrite) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if p.Pkg != nil && p.Pkg.Name() == "objstore" {
		return // the store owns its tables
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkTableWrite(p, lhs, report)
				}
			case *ast.IncDecStmt:
				checkTableWrite(p, st.X, report)
			}
			return true
		})
	}
}

// checkTableWrite reports e when it is a write target reaching storage of
// a Table()/Objects() call result: an index into the call, possibly
// through further field selectors or dereferences.
func checkTableWrite(p *Package, e ast.Expr, report func(pos token.Pos, format string, args ...any)) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if name := tableCallName(p, x.X); name != "" {
				report(e.Pos(),
					"write into the shared object table returned by %s(); it is an immutable epoch snapshot — copy it or publish through objstore.Store", name)
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// tableCallName reports the method name when e is a call to Epoch.Table or
// TerrainDB.Objects (methods named Table/Objects declared in a package
// named objstore or core); "" otherwise.
func tableCallName(p *Package, e ast.Expr) string {
	for {
		if paren, ok := e.(*ast.ParenExpr); ok {
			e = paren.X
			continue
		}
		break
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	fun := call.Fun
	for {
		if paren, ok := fun.(*ast.ParenExpr); ok {
			fun = paren.X
			continue
		}
		break
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	obj := s.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	if name != "Table" && name != "Objects" {
		return ""
	}
	switch obj.Pkg().Name() {
	case "objstore", "core":
		return name
	}
	return ""
}
