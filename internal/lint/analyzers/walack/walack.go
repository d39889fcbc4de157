// Package walack enforces the write-ahead-log acknowledgement
// contract on the index front-ends.
//
// Invariant: a mutation that can be acknowledged as durable must reach
// the WAL before the ack. Concretely, every exported mutation method
// (Insert, Update, Delete, UpdateBatch) on a type that carries a
// *wal.Log (or a slice of them, like ShardedIndex's per-shard logs)
// must, on every path that returns a nil error, first call a logging
// function — wal.Append / wal.AppendAsync directly, or a same-package
// helper (logAppend, logTo) that transitively reaches one. The
// durability-off case is inside the helpers (`if x.wal == nil`), so
// the mutation paths log unconditionally; a new mutation path that
// skips the log is exactly the bug this analyzer exists to catch: it
// acknowledges state recovery cannot replay.
//
// The check is path-sensitive over the function's CFG: a `return nil`
// (in the error position) is flagged if some path from the function
// entry mutates receiver state and reaches the return without passing
// a logging call. Paths that mutate nothing — empty-batch early
// returns, the zero-iteration side of a fan-out loop — acknowledge
// nothing, so they need no log. Spawning a function literal that logs
// (the sharded batch path logs from its per-shard goroutines) counts
// as logging at the spawn point, and closure-held receiver writes
// count as mutations the same way. The logging-helper set is the
// interprocedural summary "transitively reaches
// wal.Append/AppendAsync", computed on the package call graph and
// shared with errflow through the facts store. Returns of
// non-nil/unknown error expressions are never flagged — they are
// failure paths or cannot be proven to ack. BulkInsert is exempt by
// contract: it checkpoints instead of logging.
//
// The contract follows delegation. Since the front-ends became thin
// wrappers over one engine, the exported methods are one-line calls
// (`return e.mutate(step)`) and the pipeline function they share is
// where an ack can skip the log, so the check covers it too: besides
// the mutation methods, every same-package receiver method reachable
// from them that both mutates and logs is held to the same rule (the
// set errflow checks; see Checked), and a call on the receiver to a
// same-package method that mutates counts as a mutation where it
// stands — including in the return itself, so `return e.mutate(step)`
// with a mutate that never logs is flagged at the wrapper.
package walack

import (
	"go/ast"
	"go/types"

	"burtree/internal/lint/framework"
)

// Analyzer is the walack analyzer.
var Analyzer = &framework.Analyzer{
	Name: "walack",
	Doc: "exported mutation methods (Insert/Update/Delete/UpdateBatch) on WAL-carrying index types must reach " +
		"wal.Append/AppendAsync (directly or via a logging helper) on every path that acknowledges success, " +
		"so no acked state is invisible to recovery",
	Run: run,
}

// MutationMethods are the acking mutation surface of the front-ends,
// shared with errflow (same surface, complementary invariant).
var MutationMethods = map[string]bool{
	"Insert": true, "Update": true, "Delete": true, "UpdateBatch": true,
}

func run(pass *framework.Pass) error {
	for _, fn := range Checked(pass) {
		if !pass.IsTestFile(fn.Decl.Pos()) {
			checkMethod(pass, fn)
		}
	}
	return nil
}

// Checked returns the functions that carry the mutation contract, in
// source order: the exported mutation methods on WAL-carrying types,
// plus the helpers they delegate it to — same-package receiver methods
// reachable from one of them that both mutate and log (the engine's
// pipeline functions, the absorb helpers). Cached in the facts store
// and shared with errflow.
func Checked(pass *framework.Pass) []*framework.Func {
	return pass.Prog.FactOnce("walack.checked", func() any {
		carriers := Carriers(pass)
		if len(carriers) == 0 {
			return []*framework.Func(nil)
		}
		var roots []*framework.Func
		for _, fn := range pass.Prog.SortedFuncs() {
			decl := fn.Decl
			if decl.Recv == nil || decl.Body == nil || !MutationMethods[decl.Name.Name] {
				continue
			}
			recv := fn.Obj.Signature().Recv()
			if recv != nil && carriers[deref(recv.Type())] {
				roots = append(roots, fn)
			}
		}
		isRoot := make(map[*framework.Func]bool, len(roots))
		for _, fn := range roots {
			isRoot[fn] = true
		}
		mutates, logging := Mutates(pass), Logging(pass)
		reach := pass.Prog.Reachable(roots)
		var out []*framework.Func
		for _, fn := range pass.Prog.SortedFuncs() {
			if isRoot[fn] || reach[fn] && fn.Decl.Recv != nil && fn.Decl.Body != nil && mutates[fn] && logging[fn] {
				out = append(out, fn)
			}
		}
		return out
	}).([]*framework.Func)
}

// Path states for the product dataflow: each path through the method
// carries one of four states; a block holds the set of states paths
// reach it in.
const (
	stMut      = 1 << 0 // a receiver write happened on this path
	stUnlogged = 1 << 1 // no logging call has happened on this path
	numStates  = 4
)

// checkMethod flags success returns some path reaches having mutated
// receiver state without a logging call.
func checkMethod(pass *framework.Pass, fn *framework.Func) {
	cfg := pass.Prog.CFGOf(fn)
	name := fn.Decl.Name.Name
	recv := framework.ReceiverVar(pass.TypesInfo, fn.Decl)

	logsAt := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok && IsLoggingCall(pass, call) {
				found = true
			}
			return true
		})
		return found
	}
	mutatesAt := func(n ast.Node) bool {
		return recv != nil && MutatesAt(pass, n, recv, true)
	}
	// step applies one node's events to a path state.
	step := func(state uint8, n ast.Node) uint8 {
		if mutatesAt(n) {
			state |= stMut
		}
		if logsAt(n) {
			state &^= stUnlogged
		}
		return state
	}
	// blockStep applies a whole block.
	blockStep := func(states uint16, b *framework.Block) uint16 {
		var out uint16
		for s := uint8(0); s < numStates; s++ {
			if states&(1<<s) == 0 {
				continue
			}
			cur := s
			for _, n := range b.Nodes {
				cur = step(cur, n)
			}
			out |= 1 << cur
		}
		return out
	}

	// Forward propagation of reachable path-state sets.
	states := map[*framework.Block]uint16{cfg.Entry: 1 << stUnlogged}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			in, ok := states[b]
			if !ok {
				continue
			}
			out := blockStep(in, b)
			for _, s := range b.Succs {
				if merged := states[s] | out; merged != states[s] {
					states[s] = merged
					changed = true
				}
			}
		}
	}

	for _, b := range cfg.Blocks {
		ret, ok := b.Return()
		if !ok || len(ret.Results) == 0 {
			continue
		}
		// State set at the return: entry states advanced through the
		// block's earlier nodes. unlogged: some path gets here without a
		// logging call; bad: one of those paths has also mutated.
		bad, unlogged := false, false
		for s := uint8(0); s < numStates; s++ {
			if states[b]&(1<<s) == 0 {
				continue
			}
			cur := s
			for _, n := range b.Nodes[:len(b.Nodes)-1] {
				cur = step(cur, n)
			}
			if cur&stUnlogged != 0 {
				unlogged = true
				bad = bad || cur&stMut != 0
			}
		}
		errExpr := ret.Results[len(ret.Results)-1]
		switch e := errExpr.(type) {
		case *ast.Ident:
			if bad && e.Name == "nil" {
				pass.Reportf(ret.Pos(), "%s acknowledges success without reaching the WAL: a path mutates state and reaches this return with no wal.Append/AppendAsync (or logging helper) call", name)
			}
		case *ast.CallExpr:
			// A returned call can be the ack itself (`return
			// x.logAppend(...)`, `return e.mutate(step)`) or a
			// same-package tail that may succeed (`return
			// x.maybeMerge()`); the latter must come after the log call,
			// and must not be where the mutation happens. Foreign
			// constructors (fmt.Errorf, errors.New) only build failures
			// and are never acks.
			callee := framework.StaticCallee(pass.TypesInfo, e)
			samePkg := callee != nil && callee.Pkg() == pass.Pkg
			if samePkg && !IsLoggingCall(pass, e) && (bad || unlogged && mutatesAt(ret)) {
				pass.Reportf(ret.Pos(), "%s acknowledges success without reaching the WAL: the returned helper does not log and a mutating path reaches it with no logging call", name)
			}
		}
	}
}

// Mutates is the interprocedural summary "writes state through a
// receiver, directly or transitively", cached in the facts store and
// shared with errflow.
func Mutates(pass *framework.Pass) map[*framework.Func]bool {
	return pass.Prog.FactOnce("walack.mutates", func() any {
		return pass.Prog.Transitive(func(fn *framework.Func) bool {
			if fn.Decl.Recv == nil || fn.Decl.Body == nil {
				return false
			}
			recv := framework.ReceiverVar(pass.TypesInfo, fn.Decl)
			if recv == nil {
				return false
			}
			for _, stmt := range fn.Decl.Body.List {
				if framework.WritesThrough(pass.TypesInfo, stmt, recv, false) {
					return true
				}
			}
			return false
		})
	}).(map[*framework.Func]bool)
}

// MutatesAt reports whether node n changes state reachable from recv: a
// write through it (an assignment, delete or ++/--), or a call on it —
// x.mutate(...), x.shards[s].Insert(...) — to a same-package function
// whose summary says it mutates. The second form is what keeps a
// wrapper's one-line delegation visible as the mutation it is.
func MutatesAt(pass *framework.Pass, n ast.Node, recv types.Object, intoFuncLits bool) bool {
	if framework.WritesThrough(pass.TypesInfo, n, recv, intoFuncLits) {
		return true
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return intoFuncLits
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || framework.RootObject(pass.TypesInfo, sel.X) != recv {
			return true
		}
		if callee := framework.StaticCallee(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
			if fn := pass.Prog.FuncOf(callee); fn != nil && Mutates(pass)[fn] {
				found = true
			}
		}
		return !found
	})
	return found
}

// Carriers returns the package-level named types that carry a
// *wal.Log (directly, or as a slice/array of per-shard logs). Cached
// in the facts store and shared with errflow.
func Carriers(pass *framework.Pass) map[types.Type]bool {
	return pass.Prog.FactOnce("walack.carriers", func() any {
		out := map[types.Type]bool{}
		pkg := pass.Pkg
		if pkg == nil {
			return out
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				ft := st.Field(i).Type()
				switch t := ft.(type) {
				case *types.Slice:
					ft = t.Elem()
				case *types.Array:
					ft = t.Elem()
				}
				if isWALLog(ft) {
					out[tn.Type()] = true
					break
				}
			}
		}
		return out
	}).(map[types.Type]bool)
}

// Logging returns the summary "transitively calls Append/AppendAsync
// on a *wal.Log", computed over the package call graph. Cached in the
// facts store and shared with errflow.
func Logging(pass *framework.Pass) map[*framework.Func]bool {
	return pass.Prog.FactOnce("walack.logging", func() any {
		return pass.Prog.Transitive(func(fn *framework.Func) bool {
			if fn.Decl.Body == nil {
				return false
			}
			direct := false
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				if direct {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok && IsDirectWALAppend(pass.TypesInfo, call) {
					direct = true
				}
				return true
			})
			return direct
		})
	}).(map[*framework.Func]bool)
}

// IsLoggingCall reports whether the call reaches the WAL: a direct
// Append/AppendAsync on a *wal.Log, or a call to a function whose
// summary says it transitively logs.
func IsLoggingCall(pass *framework.Pass, call *ast.CallExpr) bool {
	if IsDirectWALAppend(pass.TypesInfo, call) {
		return true
	}
	callee := framework.StaticCallee(pass.TypesInfo, call)
	if callee == nil {
		return false
	}
	fn := pass.Prog.FuncOf(callee)
	return fn != nil && Logging(pass)[fn]
}

// IsDirectWALAppend matches l.Append(...) / l.AppendAsync(...) where l
// is a *wal.Log.
func IsDirectWALAppend(info *types.Info, call *ast.CallExpr) bool {
	recv, name, ok := framework.ReceiverOf(info, call)
	if !ok || (name != "Append" && name != "AppendAsync") {
		return false
	}
	return isWALLog(recv)
}

// isWALLog reports whether t is wal.Log (possibly behind a pointer)
// from a package whose path ends in "wal".
func isWALLog(t types.Type) bool {
	return framework.NamedFrom(t, "wal", "Log")
}

func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
