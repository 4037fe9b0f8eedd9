// Package framework is the spine of the snlint analyzer suite: the
// Analyzer / Pass / Diagnostic triple plus the shared AST and type
// helpers the individual analyzers lean on.
//
// It deliberately mirrors the golang.org/x/tools/go/analysis API
// (same field names, same Run contract) so the suite reads like — and
// can migrate wholesale to — upstream go/analysis the day the module
// takes on the x/tools dependency. The module currently has no
// third-party requirements at all, and the lint gate must run in the
// same dependency-free build as the code it checks, so the triple is
// vendial: ~100 lines of stdlib instead of an import.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one named static check. Run inspects a single
// package (one Pass) and reports findings through pass.Report; a
// non-nil error aborts the whole lint run, so analyzers reserve it for
// internal invariant failures, never for findings.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:allow directives
	Doc  string // what contract the analyzer enforces, and why

	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Path      string // import path as loaded (module-qualified)
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver owns collection,
	// suppression and ordering.
	Report func(Diagnostic)
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PathHasSegment reports whether any "/"-separated segment of the
// package import path equals one of names. Matching whole segments —
// not prefixes — lets one config list cover both the real tree
// ("snmatch/internal/pipeline") and an analyzer's test corpus
// ("corpus/pipeline") without hard-coding the module name.
func PathHasSegment(path string, names ...string) bool {
	for _, seg := range strings.Split(path, "/") {
		for _, n := range names {
			if seg == n {
				return true
			}
		}
	}
	return false
}

// ObjectOf resolves an expression that names something — an *ast.Ident
// or the Sel of an *ast.SelectorExpr — to its types.Object, or nil.
func ObjectOf(info *types.Info, expr ast.Expr) types.Object {
	switch e := expr.(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return ObjectOf(info, e.Sel)
	case *ast.ParenExpr:
		return ObjectOf(info, e.X)
	}
	return nil
}

// CalleeObject resolves a call expression's static callee, or nil for
// calls through function values, interface methods and builtins.
func CalleeObject(info *types.Info, call *ast.CallExpr) *types.Func {
	if o, ok := ObjectOf(info, call.Fun).(*types.Func); ok {
		return o
	}
	return nil
}

// IsPkgFunc reports whether call statically resolves to the function
// (or method) pkgPath.name.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeObject(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// IsBuiltin reports whether call invokes the named builtin (append,
// make, new, delete, ...).
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = ObjectOf(info, id).(*types.Builtin)
	return ok
}

// Deref unwraps one level of pointer.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// IsNamed reports whether t (after unwrapping aliases) is the named
// type pkgName.typeName. Matching by package NAME rather than full
// path keeps the check corpus-friendly: a test fixture's "obs" stub
// satisfies the same rule as snmatch/internal/obs.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o != nil && o.Pkg() != nil && o.Pkg().Name() == pkgName && o.Name() == typeName
}

// FuncLabel renders a function or method name for diagnostics:
// "Classify" for plain functions, "(*DescriptorIndex).Scan" for
// methods.
func FuncLabel(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		name := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			name = "*"
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			name += n.Obj().Name()
		}
		return "(" + name + ")." + fn.Name()
	}
	return fn.Name()
}

// UsesIdentOf reports whether the subtree rooted at n contains a use
// of exactly the object obj.
func UsesIdentOf(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
