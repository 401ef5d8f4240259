package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// underDir reports whether a package's import path lies at or below the
// module-relative directory dir ("internal/server" matches
// surfknn/internal/server and surfknn/internal/server/front, not
// surfknn/internal/serverless). The serving-layer rules scope on it rather
// than on the package name, so a new package under the layer cannot escape
// them by being called something else; their fixtures reproduce the
// directory shape under testdata.
func underDir(importPath, dir string) bool {
	return strings.Contains(importPath+"/", "/"+dir+"/")
}

// wireTypes forbids ad-hoc JSON shapes in the HTTP serving layer
// (internal/server and everything below it, and internal/shard): marshaling a map literal or an
// anonymous struct mints a wire shape that exists nowhere in the importable
// contract. Every byte the service emits must round-trip through a named
// type in internal/server/api — that is what makes the client, the
// coordinator and the tests provably speak the same schema, and what the
// api:"v1" tags version. A handler that reaches for
// json.Marshal(map[string]any{...}) is defining wire format by accident.
type wireTypes struct{}

func (wireTypes) Name() string { return "wire-types" }
func (wireTypes) Doc() string {
	return "serving-layer JSON must marshal named api types, not maps or anonymous structs"
}

func (wireTypes) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !underDir(p.ImportPath, "internal/server") && !underDir(p.ImportPath, "internal/shard") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg, ok := jsonEncodeArg(p, call)
			if !ok || arg == nil {
				return true
			}
			if shape := adHocShape(p, arg); shape != "" {
				report(call.Pos(),
					"marshaling %s defines a wire shape outside the api package; give it a named type in internal/server/api", shape)
			}
			return true
		})
	}
}

// jsonEncodeArg returns the value expression a call serialises, when the
// call is encoding/json's Marshal/MarshalIndent or (*json.Encoder).Encode —
// resolved through the type information so an import alias cannot hide it.
func jsonEncodeArg(p *Package, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return nil, false
	}
	switch fn.Name() {
	case "Marshal", "MarshalIndent", "Encode":
		if len(call.Args) == 0 {
			return nil, false
		}
		return call.Args[0], true
	}
	return nil, false
}

// adHocShape classifies the serialised expression's type: "a map" for any
// map type, "an anonymous struct" for a struct with no name, "" for
// everything else (named types, slices of named types, interfaces).
func adHocShape(p *Package, arg ast.Expr) string {
	tv, ok := p.Info.Types[arg]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	switch t.(type) {
	case *types.Map:
		return "a map"
	case *types.Struct:
		return "an anonymous struct"
	}
	return ""
}
