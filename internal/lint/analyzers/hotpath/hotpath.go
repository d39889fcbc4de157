// Package hotpath enforces the per-op allocation budget on the
// bottom-up update path.
//
// The paper's result — and ROADMAP item 3 — hold only while one
// update costs a handful of page touches, so the engine's per-op code
// must not heap-allocate per iteration. A function is marked as a
// hot-path root with a
//
//	//burlint:hotpath
//
// line in its doc comment (UpdateBatch's group-apply pass, the
// memtable absorb methods). The analyzer computes every function
// reachable from a root through the package's static call graph —
// interface calls devirtualized to package-local implementations, so
// the strategy dispatch in core resolves to the real appliers — and
// flags, inside the loop bodies of those functions, each construct
// that allocates per iteration:
//
//   - fmt calls (every fmt call allocates its format state),
//   - function literals (closures capture on the heap),
//   - make of a slice, map, or channel,
//   - slice and map composite literals,
//   - arguments boxed into a variadic ...interface{} parameter.
//
// A function called from inside a hot loop runs per op in its
// entirety, so its whole body is checked, and the marking propagates
// through its own calls.
//
// Error branches are exempt automatically: an allocation in a block
// that itself ends the function on a non-nil error return (or a panic)
// is cold by construction, so `return fmt.Errorf(...)` needs no
// annotation. There is no other exemption — no ignore line: an
// allocation the analyzer flags is hoisted, reused or moved off the
// per-op path.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"burtree/internal/lint/framework"
)

// Marker introduces a hot-path root annotation in a doc comment.
const Marker = "//burlint:hotpath"

// Analyzer is the hotpath analyzer.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc: "functions reachable from //burlint:hotpath roots must not heap-allocate per op: no fmt calls, " +
		"closures, make, slice/map literals, or interface boxing in loop bodies (error branches are exempt)",
	Run: run,
}

func run(pass *framework.Pass) error {
	prog := pass.Prog
	if prog == nil || prog.Pkg == nil {
		return nil
	}
	roots := rootFuncs(prog)
	if len(roots) == 0 {
		return nil
	}

	// hot[fn] names the root that makes fn's loops per-op code.
	hot := make(map[*framework.Func]string)
	var markHot func(fn *framework.Func, root string)
	markHot = func(fn *framework.Func, root string) {
		if _, ok := hot[fn]; ok {
			return
		}
		hot[fn] = root
		for _, cs := range fn.Calls {
			for _, t := range cs.Targets {
				markHot(t, root)
			}
		}
	}
	for _, r := range roots {
		markHot(r, r.Obj.Name())
	}

	// perOp[fn]: fn is invoked from inside a hot loop, so every call of
	// it is one op and its whole body is budgeted — transitively.
	perOp := make(map[*framework.Func]string)
	var markPerOp func(fn *framework.Func, root string)
	markPerOp = func(fn *framework.Func, root string) {
		if _, ok := perOp[fn]; ok {
			return
		}
		perOp[fn] = root
		for _, cs := range fn.Calls {
			for _, t := range cs.Targets {
				markPerOp(t, root)
			}
		}
	}
	for fn, root := range hot {
		if fn.Decl.Body == nil {
			continue
		}
		loops := loopBodies(fn.Decl.Body)
		for _, cs := range fn.Calls {
			if !within(loops, cs.Call.Pos()) {
				continue
			}
			for _, t := range cs.Targets {
				markPerOp(t, root)
			}
		}
	}

	for _, fn := range prog.SortedFuncs() {
		if fn.Decl.Body == nil || pass.IsTestFile(fn.Decl.Pos()) {
			continue
		}
		if root, ok := perOp[fn]; ok {
			check(pass, fn, nil, root)
		} else if root, ok := hot[fn]; ok {
			if loops := loopBodies(fn.Decl.Body); len(loops) > 0 {
				check(pass, fn, loops, root)
			}
		}
	}
	return nil
}

// rootFuncs returns the functions whose doc comment carries the
// //burlint:hotpath marker.
func rootFuncs(prog *framework.Program) []*framework.Func {
	var out []*framework.Func
	for _, fn := range prog.SortedFuncs() {
		if fn.Decl.Doc == nil {
			continue
		}
		for _, c := range fn.Decl.Doc.List {
			if c.Text == Marker || strings.HasPrefix(c.Text, Marker+" ") {
				out = append(out, fn)
				break
			}
		}
	}
	return out
}

// check flags per-op allocations in fn. With loops non-nil only nodes
// inside those loop bodies are budgeted (fn itself is hot); with loops
// nil the whole body is (fn is per-op). Cold blocks — every
// terminating path fails — are exempt either way.
func check(pass *framework.Pass, fn *framework.Func, loops []span, root string) {
	cfg := pass.Prog.CFGOf(fn)
	name := fn.Obj.Name()
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if loops != nil && !within(loops, n.Pos()) {
			return true // keep walking: loops may be nested deeper
		}
		if coldAt(cfg, n.Pos()) {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocated per op in %s (hot via %s); hoist it out of the per-op path", name, root)
		case *ast.CompositeLit:
			switch typeOf(pass.TypesInfo, n).(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "composite literal allocates per op in %s (hot via %s); reuse a buffer or hoist it", name, root)
			}
		case *ast.CallExpr:
			switch {
			case isFmtCall(pass.TypesInfo, n):
				pass.Reportf(n.Pos(), "fmt call allocates per op in %s (hot via %s); format off the hot path or fail the branch", name, root)
			case isAllocatingMake(pass.TypesInfo, n):
				pass.Reportf(n.Pos(), "make allocates per op in %s (hot via %s); hoist the allocation and reuse it", name, root)
			case boxesIntoVariadic(pass.TypesInfo, n):
				pass.Reportf(n.Pos(), "argument boxed into interface per op in %s (hot via %s); avoid the variadic-any call on the hot path", name, root)
			}
		}
		return true
	})
}

type span struct{ lo, hi token.Pos }

func loopBodies(body *ast.BlockStmt) []span {
	var out []span
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			out = append(out, span{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			out = append(out, span{n.Body.Pos(), n.Body.End()})
		}
		return true
	})
	return out
}

func within(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.lo <= pos && pos < s.hi {
			return true
		}
	}
	return false
}

// coldAt reports whether the innermost CFG node covering pos sits in a
// block that itself ends the function on a failure (Block.Fails). The
// check is deliberately block-local rather than MustFail: hot roots
// like batch appliers end by forwarding an error variable, which makes
// every path "possibly failing" and would exempt the whole loop.
func coldAt(cfg *framework.CFG, pos token.Pos) bool {
	if cfg == nil {
		return false
	}
	var best ast.Node
	var blk *framework.Block
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				if best == nil || n.End()-n.Pos() < best.End()-best.Pos() {
					best, blk = n, b
				}
			}
		}
	}
	return blk != nil && blk.Fails()
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return nil
}

func isFmtCall(info *types.Info, call *ast.CallExpr) bool {
	f := framework.StaticCallee(info, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt"
}

// isAllocatingMake matches make of a slice, map, or channel.
func isAllocatingMake(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	switch typeOf(info, call.Args[0]).(type) {
	case *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// boxesIntoVariadic reports whether a non-interface argument is passed
// to a variadic interface parameter (so it is boxed on the heap).
// Spread calls (xs...) pass the slice through unboxed.
func boxesIntoVariadic(info *types.Info, call *ast.CallExpr) bool {
	if call.Ellipsis != token.NoPos {
		return false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || !sig.Variadic() {
		return false
	}
	last := sig.Params().At(sig.Params().Len() - 1)
	slice, ok := last.Type().Underlying().(*types.Slice)
	if !ok || !types.IsInterface(slice.Elem()) {
		return false
	}
	for i := sig.Params().Len() - 1; i < len(call.Args); i++ {
		if t := info.Types[call.Args[i]].Type; t != nil && !types.IsInterface(t) {
			return true
		}
	}
	return false
}
