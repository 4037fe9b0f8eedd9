// Package ctxcheckpoint enforces the cancellation contract: a function
// that accepts a context.Context has promised its caller a bounded
// response to cancellation, so every span of unbounded work inside it —
// an outermost loop, or a parallel fan-out closure — must either check
// the context itself (ctx.Err / ctx.Done) or delegate to a callee that
// takes the context.
//
// The granularity mirrors the house style set by the descriptor
// pipeline: checkpoints sit at stage boundaries (classifyOn's ctx.Err
// before extraction), at shard boundaries (ShardedIndex.scanSpan's
// ctx.Err, reached from the parallel.ForEach closure), and once per
// view in the scan kernels — the flat float and binary kernels take
// ctx, so their outermost view loop must check it — while the per-row
// distance loops inside run straight-line. Accordingly the
// analyzer checks only the outermost loop of each nest — once a loop
// checkpoints, the loops inside it are its business — and treats
// every function literal handed to the parallel package as its own
// span, because that closure IS the shard scan and deadline expiry
// must skip remaining shards, not just remaining calls.
//
// Scope is the deterministic compute packages (pipeline, features):
// serving-layer loops block on channels and honour ctx through select,
// a shape this analyzer does not attempt to grade. Bounded cleanup
// loops that genuinely need no checkpoint carry a justified
// //lint:allow ctxcheckpoint directive.
package ctxcheckpoint

import (
	"go/ast"
	"go/types"

	"snmatch/internal/analysis/framework"
)

// Packages lists the import-path segments the contract applies to.
var Packages = []string{"pipeline", "features"}

var Analyzer = &framework.Analyzer{
	Name: "ctxcheckpoint",
	Doc:  "require ctx checkpoints in loops and parallel fan-out closures of context-accepting functions",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !framework.PathHasSegment(pass.Path, Packages...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasCtxParam(pass.TypesInfo, fd) {
				continue
			}
			checkSpans(pass, fd)
		}
	}
	return nil
}

func hasCtxParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isCtxType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isCtxType(t types.Type) bool {
	return framework.IsNamed(t, "context", "Context")
}

// checkSpans walks fd's body, stopping at span boundaries: an
// outermost loop, or a FuncLit passed to the parallel package. Each
// span must contain a checkpoint; nothing inside a satisfied span is
// examined further.
func checkSpans(pass *framework.Pass, fd *ast.FuncDecl) {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	name := fd.Name.Name
	if fn != nil {
		name = framework.FuncLabel(fn)
	}
	fanout := map[*ast.FuncLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if !containsCheckpoint(pass.TypesInfo, n.Body) {
				pass.Reportf(n.Pos(), "loop in %s never checks ctx; add a ctx.Err checkpoint or delegate to a ctx-aware callee", name)
			}
			return false
		case *ast.RangeStmt:
			if !containsCheckpoint(pass.TypesInfo, n.Body) {
				pass.Reportf(n.Pos(), "loop in %s never checks ctx; add a ctx.Err checkpoint or delegate to a ctx-aware callee", name)
			}
			return false
		case *ast.CallExpr:
			if isParallelCall(pass.TypesInfo, n) {
				for _, a := range n.Args {
					if fl, ok := a.(*ast.FuncLit); ok {
						fanout[fl] = true
						if !containsCheckpoint(pass.TypesInfo, fl.Body) {
							pass.Reportf(fl.Pos(), "parallel fan-out closure in %s never re-checks ctx; each shard must check ctx.Err before scanning", name)
						}
					}
				}
			}
		case *ast.FuncLit:
			// Fan-out closures were graded as spans above; other
			// literals (defer, go, callbacks) are walked through so
			// their outermost loops get the same treatment.
			if fanout[n] {
				return false
			}
		}
		return true
	})
}

// containsCheckpoint reports whether the subtree checks or forwards a
// context: a ctx.Err()/ctx.Done() call, or any call receiving a
// context.Context argument (delegation — the callee inherits the
// obligation, and this analyzer grades it there if it is in scope).
func containsCheckpoint(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isCtxType(info.TypeOf(sel.X)) {
				found = true
				return false
			}
		}
		for _, a := range call.Args {
			if isCtxType(info.TypeOf(a)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isParallelCall reports whether call statically resolves into a
// package named "parallel" (the fan-out primitives ForEach, Gate...).
func isParallelCall(info *types.Info, call *ast.CallExpr) bool {
	fn := framework.CalleeObject(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "parallel"
}
