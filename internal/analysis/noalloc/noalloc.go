// Package noalloc enforces the zero-allocation warm-path contract
// (PR 4's "0 allocs/op" gate) at compile time: functions marked with a
//
//	//snmatch:noalloc
//
// directive — and everything statically reachable from them inside the
// same package — must not contain allocation-inducing constructs.
//
// The runtime gate (TestQueryPathAllocs) catches a regression after it
// lands and only on the configurations the test happens to drive; this
// analyzer rejects the construct itself, on every path, at review
// time. Flagged constructs:
//
//   - fmt.* calls (formatting allocates and reflects)
//   - non-constant string concatenation
//   - make / new, and append (growth reallocates; warm-path buffers
//     come from the arena or a sync.Pool)
//   - &T{...} composite literals (heap-escaping pointers)
//   - string <-> []byte / []rune conversions (copying conversions)
//   - function literals (the closure environment allocates; hoist to a
//     named function or method — the single-span ShardedIndex.Scan
//     calls its per-span method inline, never the fan-out closure)
//   - interface boxing of non-pointer values at call sites (pointers
//     fit the interface word; values are heap-boxed)
//
// The traversal is intraprocedural per package and follows only static
// calls: a call through an interface (e.g. MatchIndex) is a contract
// boundary — the implementation carries its own annotation.
//
// One idiom is exempt by design rather than by directive: a function
// that calls (sync.Pool).Get is a pool accessor, and the allocations
// behind its miss branch (getCounts' make, getScratch's composite
// literal) are the warm-up that makes the steady state free. Flagging
// them would demand an allow on every pool in the tree for the exact
// pattern the contract is built on. Construct checks (make, new,
// append, &T{}) are therefore skipped in pool accessors; formatting,
// string concatenation, closures and boxing are still flagged there —
// those are never warm-up. Other intentional cold paths carry a
// justified //lint:allow noalloc directive; the point is that every
// warm-path allocation is either impossible or visibly signed off,
// never accidental.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"snmatch/internal/analysis/framework"
)

// Directive marks a zero-allocation root.
const Directive = "//snmatch:noalloc"

var Analyzer = &framework.Analyzer{
	Name: "noalloc",
	Doc: "flag allocation-inducing constructs in functions reachable from " +
		Directive + " roots",
	Run: run,
}

func run(pass *framework.Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	var roots []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if isRoot(fd) {
				roots = append(roots, fn)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Breadth-first closure over same-package static calls, remembering
	// the first root that reached each function for the report text.
	rootOf := map[*types.Func]*types.Func{}
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		rootOf[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fd := decls[fn]
		if fd == nil {
			continue
		}
		root := rootOf[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := framework.CalleeObject(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() != pass.Pkg {
				return true
			}
			if _, seen := rootOf[callee]; !seen {
				if _, hasBody := decls[callee]; hasBody {
					rootOf[callee] = root
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	for fn, root := range rootOf {
		if fd := decls[fn]; fd != nil {
			checkBody(pass, fd, fn, root)
		}
	}
	return nil
}

func isRoot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == Directive {
			return true
		}
	}
	return false
}

func checkBody(pass *framework.Pass, fd *ast.FuncDecl, fn, root *types.Func) {
	where := "in noalloc function " + funcLabel(fn)
	if fn != root {
		where = "in " + funcLabel(fn) + " (reachable from noalloc root " + funcLabel(root) + ")"
	}
	poolAccessor := isPoolAccessor(pass.TypesInfo, fd)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocates its environment %s; hoist it to a named function or method", where)
			return false // one finding covers the literal
		case *ast.CallExpr:
			checkCall(pass, n, where, poolAccessor)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(pass, n) {
				pass.Reportf(n.Pos(), "string concatenation allocates %s; format off the warm path or use a pooled buffer", where)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(pass.TypesInfo.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(), "string concatenation allocates %s; format off the warm path or use a pooled buffer", where)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && !poolAccessor {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal heap-allocates %s; reuse a pooled object", where)
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// isPoolAccessor reports whether fd calls (sync.Pool).Get — the miss
// branch of such a function is the sanctioned warm-up allocation site.
func isPoolAccessor(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Get" {
			return true
		}
		if framework.IsNamed(framework.Deref(info.TypeOf(sel.X)), "sync", "Pool") {
			found = true
		}
		return !found
	})
	return found
}

func checkCall(pass *framework.Pass, call *ast.CallExpr, where string, poolAccessor bool) {
	info := pass.TypesInfo

	// Conversions: string <-> []byte / []rune copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if isCopyingConversion(to, from) {
			pass.Reportf(call.Pos(), "%s conversion copies its operand %s", conversionLabel(to, from), where)
		}
		return
	}

	switch {
	case framework.IsBuiltin(info, call, "make"):
		if !poolAccessor {
			pass.Reportf(call.Pos(), "make allocates %s; borrow from the arena or a sync.Pool", where)
		}
		return
	case framework.IsBuiltin(info, call, "new"):
		if !poolAccessor {
			pass.Reportf(call.Pos(), "new allocates %s; reuse pooled storage", where)
		}
		return
	case framework.IsBuiltin(info, call, "append"):
		if !poolAccessor {
			pass.Reportf(call.Pos(), "append may grow its backing array %s; preallocate via the arena or pool", where)
		}
		return
	}

	if fn := framework.CalleeObject(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s formats and allocates %s; move formatting off the warm path", fn.Name(), where)
		return
	}

	// Interface boxing of non-pointer values at argument positions.
	// Remaining builtins (panic, copy, len...) either don't box or are
	// cold by definition — a panic is the end of the warm path.
	if _, ok := framework.ObjectOf(info, call.Fun).(*types.Builtin); ok {
		return
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i)
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if tv, ok := info.Types[arg]; ok && tv.IsNil() {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: fits the interface word, no box
		}
		pass.Reportf(arg.Pos(), "passing %s by value boxes it into %s %s; pass a pointer or a pointer-shaped handle",
			types.TypeString(at, types.RelativeTo(pass.Pkg)), types.TypeString(pt, types.RelativeTo(pass.Pkg)), where)
	}
}

func paramType(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if s, ok := last.Underlying().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

func isCopyingConversion(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringType(from))
}

func conversionLabel(to, from types.Type) string {
	if isStringType(to) {
		return "slice-to-string"
	}
	return "string-to-slice"
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isNonConstString(pass *framework.Pass, e *ast.BinaryExpr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if !isStringType(t) {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return false // constant-folded at compile time
	}
	return true
}

func funcLabel(fn *types.Func) string { return framework.FuncLabel(fn) }
