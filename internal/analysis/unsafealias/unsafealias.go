// Package unsafealias fences in the two ways the tree reads raw
// memory. The zero-copy mmap aliasing that makes snapshot loads O(1)
// may reinterpret mapped bytes, but only behind the one seam built for
// it and with the guard rails the seam established; assembly kernels
// may run, but only behind the simd seam.
//
// Four rules:
//
//   - Placement: runtime unsafe operations (unsafe.Pointer casts,
//     unsafe.Slice and friends) may appear only in alias_*.go files of
//     a snapshot package — the per-endianness seam where every cast
//     sits next to its alignment and layout justification.
//     Compile-time operators (Sizeof, Offsetof, Alignof) are pure
//     arithmetic and are allowed anywhere (the arena sizes its chunks
//     with Sizeof).
//   - Layout guard: aliasing a STRUCT element type bakes that struct's
//     field offsets into the disk format. The aliasing function must
//     consult a package-level guard variable whose initializer
//     verifies the layout with unsafe.Offsetof — the
//     keypointLayoutMatches pattern — so an innocent field reorder
//     degrades to the decode fallback instead of corrupting reads.
//   - Retention: the aliased slice borrows the mapping's memory and
//     dies with Mapping.Release. Storing an alias helper's result in a
//     package-level variable outlives any release and is flagged; the
//     static proxy for "does not escape the mapping's lifetime" is
//     "does not escape into process-lifetime state".
//   - Assembly seam: a function declared without a body (an assembly
//     stub) may appear only in a package with a simd path segment,
//     must be unexported, so every call goes through a Go wrapper that
//     bounds-checks its inputs first, and must carry //go:noescape, so
//     its pointer arguments stay off the heap.
package unsafealias

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"snmatch/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "unsafealias",
	Doc:  "confine runtime unsafe to snapshot alias files, require layout guards for struct aliasing, forbid retaining aliased slices, confine assembly stubs to unexported //go:noescape declarations in simd packages",
	Run:  run,
}

// compileTime lists the unsafe operators evaluated entirely by the
// compiler: no pointer is formed, nothing can dangle.
var compileTime = map[string]bool{"Sizeof": true, "Offsetof": true, "Alignof": true}

func run(pass *framework.Pass) error {
	info := pass.TypesInfo
	inSnapshotPkg := framework.PathHasSegment(pass.Path, "snapshot")
	inSimdPkg := framework.PathHasSegment(pass.Path, "simd")

	// Guard vars: package-level, initialized via unsafe.Offsetof.
	guards := collectGuards(pass)
	// Alias helpers: package functions whose bodies call unsafe.Slice.
	aliasFuncs := map[*types.Func]*ast.FuncDecl{}

	for _, f := range pass.Files {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		blessed := inSnapshotPkg && strings.HasPrefix(base, "alias_")

		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Body == nil {
				checkAsmStub(pass, fd, inSimdPkg)
				continue
			}
			usesSlice := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				name, pos, ok := unsafeUse(info, n)
				if !ok {
					return true
				}
				if compileTime[name] {
					return true
				}
				if name == "Slice" {
					usesSlice = true
				}
				if !blessed {
					pass.Reportf(pos, "runtime unsafe.%s outside the snapshot alias seam (alias_*.go); route the cast through the alias helpers", name)
					return true
				}
				if name == "Slice" {
					checkStructGuard(pass, fd, n.(*ast.SelectorExpr), guards)
				}
				return true
			})
			if usesSlice {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					aliasFuncs[fn] = fd
				}
			}
		}

		// Package-level vars must not use unsafe at runtime either.
		if !blessed {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				ast.Inspect(gd, func(n ast.Node) bool {
					if name, pos, ok := unsafeUse(info, n); ok && !compileTime[name] {
						pass.Reportf(pos, "runtime unsafe.%s outside the snapshot alias seam (alias_*.go); route the cast through the alias helpers", name)
					}
					return true
				})
			}
		}
	}

	if len(aliasFuncs) > 0 {
		checkRetention(pass, aliasFuncs)
	}
	return nil
}

// checkAsmStub grades a function declared without a body: its code
// is assembly, which reads raw memory as freely as unsafe does.
func checkAsmStub(pass *framework.Pass, fd *ast.FuncDecl, inSimdPkg bool) {
	name := fd.Name.Name
	if !inSimdPkg {
		pass.Reportf(fd.Name.Pos(), "assembly stub %s outside a simd package; assembly kernels live behind the simd seam", name)
	}
	if fd.Name.IsExported() {
		pass.Reportf(fd.Name.Pos(), "assembly stub %s is exported; call it only from a Go wrapper that reslices its inputs to the lengths it reads", name)
	}
	noescape := false
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			noescape = noescape || c.Text == "//go:noescape"
		}
	}
	if !noescape {
		pass.Reportf(fd.Name.Pos(), "assembly stub %s lacks //go:noescape, so its pointer arguments escape to the heap", name)
	}
}

// unsafeUse reports whether n is a use of package unsafe, returning
// the member name.
func unsafeUse(info *types.Info, n ast.Node) (string, token.Pos, bool) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", 0, false
	}
	if pn, ok := info.Uses[id].(*types.PkgName); !ok || pn.Imported().Path() != "unsafe" {
		return "", 0, false
	}
	return sel.Sel.Name, sel.Pos(), true
}

// collectGuards finds package-level variables whose initializers
// contain unsafe.Offsetof — the layout-check pattern.
func collectGuards(pass *framework.Pass) []types.Object {
	var guards []types.Object
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				uses := false
				for _, v := range vs.Values {
					ast.Inspect(v, func(n ast.Node) bool {
						if name, _, ok := unsafeUse(pass.TypesInfo, n); ok && name == "Offsetof" {
							uses = true
						}
						return !uses
					})
				}
				if !uses {
					continue
				}
				for _, name := range vs.Names {
					if o := pass.TypesInfo.Defs[name]; o != nil {
						guards = append(guards, o)
					}
				}
			}
		}
	}
	return guards
}

// checkStructGuard requires a layout-guard consultation in the
// function around an unsafe.Slice call that aliases a struct type.
func checkStructGuard(pass *framework.Pass, fd *ast.FuncDecl, sliceSel *ast.SelectorExpr, guards []types.Object) {
	call := enclosingCall(pass, fd, sliceSel)
	if call == nil || len(call.Args) == 0 {
		return
	}
	pt, ok := pass.TypesInfo.TypeOf(call.Args[0]).Underlying().(*types.Pointer)
	if !ok {
		return
	}
	st, ok := pt.Elem().Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return
	}
	for _, g := range guards {
		if framework.UsesIdentOf(pass.TypesInfo, fd.Body, g) {
			return
		}
	}
	pass.Reportf(sliceSel.Pos(), "unsafe.Slice aliases struct type %s without consulting an unsafe.Offsetof layout guard; add the guard-var pattern and fall back to decoding",
		types.TypeString(pt.Elem(), types.RelativeTo(pass.Pkg)))
}

// enclosingCall finds the CallExpr whose Fun is sel inside fd.
func enclosingCall(pass *framework.Pass, fd *ast.FuncDecl, sel *ast.SelectorExpr) *ast.CallExpr {
	var out *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok && ast.Unparen(c.Fun) == sel {
			out = c
			return false
		}
		return true
	})
	return out
}

// checkRetention flags alias-helper results escaping into
// package-level variables.
func checkRetention(pass *framework.Pass, aliasFuncs map[*types.Func]*ast.FuncDecl) {
	info := pass.TypesInfo
	pkgScope := pass.Pkg.Scope()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.Uses[id].(*types.Var)
				if !ok || v.Parent() != pkgScope {
					continue
				}
				if i < len(as.Rhs) {
					if fn := aliasCallIn(info, as.Rhs[i], aliasFuncs); fn != nil {
						pass.Reportf(lhs.Pos(), "package-level var %s retains the aliased slice from %s past the mapping's Release; copy the data instead",
							v.Name(), fn.Name())
					}
				}
			}
			return true
		})
		// Package-level `var x = asF32s(...)` declarations.
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					if fn := aliasCallIn(info, val, aliasFuncs); fn != nil && i < len(vs.Names) {
						pass.Reportf(vs.Names[i].Pos(), "package-level var %s retains the aliased slice from %s past the mapping's Release; copy the data instead",
							vs.Names[i].Name, fn.Name())
					}
				}
			}
		}
	}
}

// aliasCallIn returns the alias helper called anywhere inside e, if any.
func aliasCallIn(info *types.Info, e ast.Expr, aliasFuncs map[*types.Func]*ast.FuncDecl) *types.Func {
	var out *types.Func
	ast.Inspect(e, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			if fn := framework.CalleeObject(info, c); fn != nil && aliasFuncs[fn] != nil {
				out = fn
				return false
			}
		}
		return true
	})
	return out
}
