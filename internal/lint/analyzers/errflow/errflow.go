// Package errflow enforces the rollback contract on the mutation
// path: an error produced after state mutation must reach an undo
// before it escapes.
//
// The bug class is PR 8's WAL-append-failure shape: Insert/Update/
// Delete mutate the object table (and the tree), then call a fallible
// step — the WAL append, or the tree apply (PR 2's compare-and-restore
// shape) — and return its error. If the failure path returns without
// restoring the mutated state, the in-memory index diverges from what
// recovery will rebuild: the caller saw an error, but the object
// table kept the move. ShardedIndex got hand-written rollbacks in
// PR 8; this analyzer makes the shape load-bearing for every
// front-end.
//
// Scope: the mutation methods (Insert/Update/Delete/UpdateBatch) on
// WAL-carrying types plus same-package receiver methods reachable from
// them that both mutate and log — the engine's pipeline functions the
// one-line front-end methods delegate to. The set is walack.Checked,
// via the shared facts store. In each, the analyzer tracks, over the
// CFG:
//
//   - state mutation: an assignment, delete, or ++/-- through the
//     receiver (x.objects[id] = p), or a call on the receiver to a
//     same-package method that mutates (t.put(st), e.reserveBatch(...));
//   - tracked fallible calls: error-returning calls to same-package
//     functions that mutate or log, direct wal.Append/AppendAsync, or
//     methods on receiver-reachable state (x.tree.Insert);
//   - acks: walack's logging summary. A fallible call that every path
//     reaches only after a completed logging call is post-ack — the op
//     is already durable, so its failure needs no rollback
//     (maybeMerge tails).
//
// A tracked call that can execute after a mutation and before the ack
// is checked on its failure path: the branch taken when its error is
// non-nil must contain an undo — a receiver state write, a method
// call on receiver state, or a same-package call that mutates — before
// the error returns. Returning the error directly (`return
// x.logAppend(...)`) after mutation is flagged: there is no failure
// branch to undo in.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"burtree/internal/lint/analyzers/walack"
	"burtree/internal/lint/framework"
)

// Analyzer is the errflow analyzer.
var Analyzer = &framework.Analyzer{
	Name: "errflow",
	Doc: "an error produced after state mutation must reach a rollback before it escapes: mutation methods on " +
		"WAL-carrying types must undo receiver state on every pre-ack failure path (the PR 8 WAL-append and " +
		"PR 2 compare-and-restore shapes)",
	Run: run,
}

func run(pass *framework.Pass) error {
	mutates := walack.Mutates(pass)
	for _, fn := range walack.Checked(pass) {
		if !pass.IsTestFile(fn.Decl.Pos()) {
			checkFunc(pass, fn, mutates)
		}
	}
	return nil
}

func checkFunc(pass *framework.Pass, fn *framework.Func, mutates map[*framework.Func]bool) {
	recv := framework.ReceiverVar(pass.TypesInfo, fn.Decl)
	if recv == nil {
		return
	}
	cfg := pass.Prog.CFGOf(fn)
	name := fn.Decl.Name.Name

	isMutNode := func(n ast.Node) bool { return walack.MutatesAt(pass, n, recv, false) }
	isLogNode := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok && walack.IsLoggingCall(pass, call) {
				found = true
			}
			return true
		})
		return found
	}

	// Both analyses run over the blocks reachable from entry: the
	// builder can leave orphan join blocks behind, and an unreachable
	// "path" must neither add mutations nor break the acked-on-every-
	// path property.
	reach := map[*framework.Block]bool{}
	var mark func(b *framework.Block)
	mark = func(b *framework.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs {
			mark(s)
		}
	}
	mark(cfg.Entry)

	// Forward may-analysis: mutated[b] = some path reaches b's start
	// after a receiver write. Forward must-analysis: acked[b] = every
	// path to b's start passed a logging call.
	preds := cfg.Predecessors()
	mutated := map[*framework.Block]bool{}
	acked := map[*framework.Block]bool{}
	hasMut := map[*framework.Block]bool{}
	hasLog := map[*framework.Block]bool{}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if isMutNode(n) {
				hasMut[b] = true
			}
			if isLogNode(n) {
				hasLog[b] = true
			}
		}
		acked[b] = b != cfg.Entry // optimistic init for the must-analysis
	}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			if !reach[b] {
				continue
			}
			m := mutated[b] || hasMut[b]
			for _, s := range b.Succs {
				if m && !mutated[s] {
					mutated[s] = true
					changed = true
				}
			}
			if b == cfg.Entry {
				continue
			}
			a := false
			for _, p := range preds[b] {
				if !reach[p] {
					continue
				}
				if !acked[p] && !hasLog[p] {
					a = false
					break
				}
				a = true
			}
			if a != acked[b] {
				acked[b] = a
				changed = true
			}
		}
	}

	for _, b := range cfg.Blocks {
		if !reach[b] {
			continue
		}
		mutNow := mutated[b]
		ackNow := acked[b]
		for i, n := range b.Nodes {
			call, inReturn := trackedCallIn(pass, n, recv, mutates)
			if call != nil && mutNow && !ackNow {
				checkCall(pass, fn, cfg, b, i, n, call, inReturn, recv, mutates, name)
			}
			if isMutNode(n) {
				mutNow = true
			}
			if isLogNode(n) {
				ackNow = true
			}
		}
	}
}

// checkCall verifies one pre-ack fallible call executed after a
// mutation: its failure path must undo receiver state.
func checkCall(pass *framework.Pass, fn *framework.Func, cfg *framework.CFG, b *framework.Block, i int, n ast.Node, call *ast.CallExpr, inReturn bool, recv types.Object, mutates map[*framework.Func]bool, name string) {
	if inReturn {
		pass.Reportf(call.Pos(), "%s returns the error of %s directly after mutating receiver state: there is no failure branch to roll back in; test the error and undo before returning", name, callName(call))
		return
	}
	errObj, discarded := errBinding(pass.TypesInfo, n, call)
	if discarded {
		pass.Reportf(call.Pos(), "%s discards the error of %s after mutating receiver state: a failed step would leave the mutation unrolled-back and unreported", name, callName(call))
		return
	}
	if errObj == nil {
		return // unrecognized binding shape: stay quiet
	}
	// Find the branch on the error in this block: the last node must
	// be a cond testing errObj, so the failure path is a successor.
	failure := failureSuccessor(cfg, b, i, errObj, pass.TypesInfo)
	if failure == nil {
		return // tested elsewhere (or not at all): out of shape, stay quiet
	}
	if !hasUndoInFailureRegion(pass, cfg, failure, recv, mutates) {
		pass.Reportf(call.Pos(), "%s mutates receiver state before %s but the failure path returns without a rollback; restore the state (compare-and-restore) before propagating the error", name, callName(call))
	}
}

// trackedCallIn returns the tracked fallible call inside node n (top
// level: function literals excluded), and whether n is a return
// statement carrying it.
func trackedCallIn(pass *framework.Pass, n ast.Node, recv types.Object, mutates map[*framework.Func]bool) (*ast.CallExpr, bool) {
	var found *ast.CallExpr
	ast.Inspect(n, func(m ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isTracked(pass, call, recv, mutates) {
			found = call
			return false
		}
		return true
	})
	if found == nil {
		return nil, false
	}
	_, isRet := n.(*ast.ReturnStmt)
	return found, isRet
}

// isTracked reports whether the call is a fallible step whose failure
// the invariant cares about: it returns an error and either reaches
// same-package state/log machinery or operates on receiver state.
func isTracked(pass *framework.Pass, call *ast.CallExpr, recv types.Object, mutates map[*framework.Func]bool) bool {
	if !returnsError(pass.TypesInfo, call) {
		return false
	}
	if walack.IsDirectWALAppend(pass.TypesInfo, call) {
		return true
	}
	callee := framework.StaticCallee(pass.TypesInfo, call)
	if callee != nil && callee.Pkg() == pass.Pkg {
		if fn := pass.Prog.FuncOf(callee); fn != nil && (mutates[fn] || walack.Logging(pass)[fn]) {
			return true
		}
	}
	// A method on receiver-reachable state (x.tree.Insert(...)).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if base, ok := sel.X.(ast.Expr); ok && framework.RootObject(pass.TypesInfo, base) == recv {
			return true
		}
	}
	return false
}

func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errBinding resolves which object the call's error lands in within
// statement n: `err := call` / `a, err := call` / `if err := call; ...`.
// discarded is true when the error is dropped (`_`, or a bare call
// statement).
func errBinding(info *types.Info, n ast.Node, call *ast.CallExpr) (types.Object, bool) {
	var assign *ast.AssignStmt
	switch s := n.(type) {
	case *ast.AssignStmt:
		assign = s
	case *ast.IfStmt:
		if a, ok := s.Init.(*ast.AssignStmt); ok {
			assign = a
		}
	case *ast.ExprStmt:
		if s.X == call {
			return nil, true
		}
	}
	if assign == nil || len(assign.Rhs) != 1 || assign.Rhs[0] != call || len(assign.Lhs) == 0 {
		return nil, false
	}
	last, ok := assign.Lhs[len(assign.Lhs)-1].(*ast.Ident)
	if !ok {
		return nil, false
	}
	if last.Name == "_" {
		return nil, true
	}
	if obj := info.Defs[last]; obj != nil {
		return obj, false
	}
	return info.Uses[last], false
}

// failureSuccessor returns the CFG block entered when errObj is
// non-nil, if block b ends (after node index i) with a test of it.
func failureSuccessor(cfg *framework.CFG, b *framework.Block, i int, errObj types.Object, info *types.Info) *framework.Block {
	if len(b.Nodes) == 0 || len(b.Succs) < 1 {
		return nil
	}
	last, ok := b.Nodes[len(b.Nodes)-1].(ast.Expr)
	if !ok {
		return nil
	}
	cond, ok := ast.Unparen(last).(*ast.BinaryExpr)
	if !ok || (cond.Op != token.NEQ && cond.Op != token.EQL) {
		return nil
	}
	var other ast.Expr
	switch {
	case identObject(info, cond.X) == errObj:
		other = cond.Y
	case identObject(info, cond.Y) == errObj:
		other = cond.X
	default:
		return nil
	}
	if id, ok := ast.Unparen(other).(*ast.Ident); !ok || id.Name != "nil" {
		return nil
	}
	// If-statement blocks branch to the then-block first (see
	// cfg.go): err != nil takes Succs[0] on failure, err == nil takes
	// the else/after successor.
	if cond.Op == token.NEQ {
		return b.Succs[0]
	}
	if len(b.Succs) > 1 {
		return b.Succs[1]
	}
	return nil
}

// hasUndoInFailureRegion scans the failing region — blocks reachable
// from the failure branch on which every terminating path still fails
// — for an undo: a receiver state write, a method call on receiver
// state, or a same-package mutating call.
func hasUndoInFailureRegion(pass *framework.Pass, cfg *framework.CFG, failure *framework.Block, recv types.Object, mutates map[*framework.Func]bool) bool {
	seen := map[*framework.Block]bool{}
	var walk func(b *framework.Block) bool
	walk = func(b *framework.Block) bool {
		if seen[b] || b == cfg.Exit || !cfg.MustFail(b) {
			return false
		}
		seen[b] = true
		for _, n := range b.Nodes {
			if isUndo(pass, n, recv, mutates) {
				return true
			}
		}
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(failure)
}

// isUndo reports whether node n restores receiver state.
func isUndo(pass *framework.Pass, n ast.Node, recv types.Object, mutates map[*framework.Func]bool) bool {
	if framework.WritesThrough(pass.TypesInfo, n, recv, false) {
		return true
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && framework.RootObject(pass.TypesInfo, sel.X) == recv {
			found = true
			return false
		}
		if callee := framework.StaticCallee(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
			if fn := pass.Prog.FuncOf(callee); fn != nil && mutates[fn] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func identObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "the call"
}
