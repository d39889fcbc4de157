// Package lockorder statically enforces the DGL acquisition protocol
// in packages that use the internal/dgl lock manager.
//
// Two invariants, both load-bearing for deadlock freedom:
//
//  1. Canonical granule order. A transaction acquires granules in the
//     global order tree → cells → pages (internal/concurrent documents
//     it; the grid cells are additionally taken in sorted id order at
//     runtime). Statically, the analyzer classifies each
//     Manager.Acquire call's granule argument into a tier by the names
//     it mentions — "tree" (tier 0), "cell" (tier 1), "page" (tier 2)
//     — and flags an acquisition whose tier is lower than one already
//     taken since the transaction began (Begin/ReleaseAll reset the
//     tracking). PR 2's rollback race was exactly a path that touched
//     granules out of protocol after a failed update.
//
//  2. No granule waits under the latch. The physical latch serializes
//     page access and is always taken *after* the granule locks; a
//     Manager.Acquire while holding it, exclusive or shared, can
//     deadlock against a holder waiting for the latch (a reader that
//     sleeps in a granule queue keeps the exclusive section its granule
//     holder is about to enter from ever starting). The analyzer flags
//     any Acquire between a sync .Lock() and its .Unlock(), or between
//     an .RLock() and its .RUnlock(), in the same function.
//     Manager.TryAcquireAll is the one entry to the lock table allowed
//     there: it takes its whole set or nothing and never waits, which
//     is what lets the optimistic lock cycle read a leaf's scope and
//     lock it under one hold of the shared latch.
//
// The analysis is a single lexical pass per function body (branches
// are treated as sequential), which matches how the engine's lock
// paths are written; function literals are analyzed independently.
// Calls to same-package helpers participate through an interprocedural
// summary: each function's transitively-acquired granule tiers are
// computed over the package call graph, so `x.lockPages(...)` after a
// page acquisition, or any acquiring helper called under the latch, is
// checked without name heuristics. A helper's tiers stay acquired in
// the caller only when the helper can hand the transaction on — it
// takes or returns a dgl.Txn. A helper with no Txn in its signature
// runs transactions of its own from Begin to ReleaseAll: its tiers are
// checked against what the caller holds at the call, and are released
// by the time it returns.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"burtree/internal/lint/framework"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc: "enforces DGL acquisition order (tree → cell → page granules, by name tier) and forbids " +
		"Manager.Acquire while a sync lock is held, exclusive or shared (granules are waited for before the latch; " +
		"only TryAcquireAll, which never waits, may be called under it)",
	Run: run,
}

// Granule tiers in canonical acquisition order.
const (
	tierUnknown = -1
	tierTree    = 0
	tierCell    = 1
	tierPage    = 2
)

var tierName = map[int]string{tierTree: "tree", tierCell: "cell", tierPage: "page"}

func run(pass *framework.Pass) error {
	acq := acquireSummary(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					scanBody(pass, n.Body, acq)
				}
				return false
			case *ast.FuncLit:
				scanBody(pass, n.Body, acq)
				return false
			}
			return true
		})
	}
	return nil
}

// acquireSummary computes, for every function in the package, the
// bitmask of granule tiers it (transitively) acquires, by fixed point
// over the call graph. Shared through the facts store.
func acquireSummary(pass *framework.Pass) map[*framework.Func]int {
	return pass.Prog.FactOnce("lockorder.acquires", func() any {
		masks := make(map[*framework.Func]int)
		for _, fn := range pass.Prog.SortedFuncs() {
			if fn.Decl.Body == nil {
				continue
			}
			mask := 0
			ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				recv, name, ok := framework.ReceiverOf(pass.TypesInfo, call)
				if ok && isDGLManager(recv) && name == "Acquire" && len(call.Args) >= 2 {
					if tier := tierOf(call.Args[1]); tier != tierUnknown {
						mask |= 1 << tier
					}
				}
				return true
			})
			masks[fn] = mask
		}
		for changed := true; changed; {
			changed = false
			for _, fn := range pass.Prog.SortedFuncs() {
				for _, cs := range fn.Calls {
					for _, t := range cs.Targets {
						if merged := masks[fn] | masks[t]; merged != masks[fn] {
							masks[fn] = merged
							changed = true
						}
					}
				}
			}
		}
		return masks
	}).(map[*framework.Func]int)
}

// summaryOf returns the acquired-tier mask of a call's same-package
// static callee (0 otherwise) and whether the callee's signature
// carries a dgl.Txn, so its locks outlive the call in the caller's
// hands.
func summaryOf(pass *framework.Pass, call *ast.CallExpr, acq map[*framework.Func]int) (mask int, sharesTxn bool) {
	callee := framework.StaticCallee(pass.TypesInfo, call)
	if callee == nil {
		return 0, false
	}
	fn := pass.Prog.FuncOf(callee)
	if fn == nil {
		return 0, false
	}
	sig := callee.Type().(*types.Signature)
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			if framework.NamedFrom(tuple.At(i).Type(), "dgl", "Txn") {
				sharesTxn = true
			}
		}
	}
	return acq[fn], sharesTxn
}

// scanBody walks one function body in lexical order, tracking the
// latch and the highest granule tier acquired so far. Nested function
// literals get their own scan with fresh state. Same-package calls
// acquire their summary tiers at the call site.
func scanBody(pass *framework.Pass, body *ast.BlockStmt, acq map[*framework.Func]int) {
	latchHeld, sharedHeld := false, false
	var latchPos, sharedPos token.Pos
	maxTier := tierUnknown

	// underLatch reports a granule wait at pos — by whom says who waits —
	// when a latch is held there.
	underLatch := func(pos token.Pos, by string) {
		switch {
		case latchHeld:
			pass.Reportf(pos, "granule lock acquired%s while holding the exclusive latch (taken at %s); granules must be acquired before the latch", by, pass.Fset.Position(latchPos))
		case sharedHeld:
			pass.Reportf(pos, "granule lock waited for%s while holding the shared latch (taken at %s); under the latch only TryAcquireAll, which never waits, may enter the lock table", by, pass.Fset.Position(sharedPos))
		}
	}

	// viaHelper applies a same-package callee's summary at its call
	// site: every tier it acquires is checked against the latch and the
	// tiers held so far, and stays held afterwards only if the callee
	// shares a transaction with the caller.
	viaHelper := func(call *ast.CallExpr) {
		mask, sharesTxn := summaryOf(pass, call, acq)
		if mask != 0 {
			underLatch(call.Pos(), " by the called helper")
		}
		held := maxTier
		for tier := tierTree; tier <= tierPage; tier++ {
			if mask&(1<<tier) == 0 {
				continue
			}
			if held != tierUnknown && tier < held {
				pass.Reportf(call.Pos(), "%s granule acquired by the called helper after a %s granule; canonical DGL order is tree → cell → page", tierName[tier], tierName[held])
			}
			if sharesTxn && tier > maxTier {
				maxTier = tier
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scanBody(pass, lit.Body, acq)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := framework.ReceiverOf(pass.TypesInfo, call)
		if !ok {
			viaHelper(call)
			return true
		}
		switch {
		case isSyncLock(recv) && name == "Lock":
			latchHeld, latchPos = true, call.Pos()
		case isSyncLock(recv) && name == "Unlock":
			latchHeld = false
		case isSyncLock(recv) && name == "RLock":
			sharedHeld, sharedPos = true, call.Pos()
		case isSyncLock(recv) && name == "RUnlock":
			sharedHeld = false
		case isDGLManager(recv):
			// TryAcquireAll is not listed: it never waits, so no latch
			// forbids it, and its set is a slice whose tiers cannot be
			// read off the call.
			switch name {
			case "Acquire":
				underLatch(call.Pos(), "")
				if len(call.Args) >= 2 {
					tier := tierOf(call.Args[1])
					if tier != tierUnknown {
						if maxTier != tierUnknown && tier < maxTier {
							pass.Reportf(call.Pos(), "%s granule acquired after a %s granule; canonical DGL order is tree → cell → page", tierName[tier], tierName[maxTier])
						}
						if tier > maxTier {
							maxTier = tier
						}
					}
				}
			case "ReleaseAll", "Begin":
				maxTier = tierUnknown
			}
		default:
			viaHelper(call)
		}
		return true
	})
}

// isSyncLock reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncLock(t types.Type) bool {
	return framework.NamedFrom(t, "sync", "Mutex") || framework.NamedFrom(t, "sync", "RWMutex")
}

// isDGLManager reports whether t is the dgl lock manager.
func isDGLManager(t types.Type) bool {
	return framework.NamedFrom(t, "dgl", "Manager")
}

// tierOf classifies a granule expression by the names it mentions.
// The engine's naming convention carries the tier: TreeGranule and
// tree-granule locals mention "tree", cellOf/cellsOfRect results and
// cell slices mention "cell", pageGranule results mention "page". The
// literal 0 is the tree granule. Mixed mentions take the highest tier
// (a "pageGranule" helper is a page no matter what else it mentions);
// unknown names impose no constraint.
func tierOf(e ast.Expr) int {
	var names []string
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			names = append(names, strings.ToLower(id.Name))
		}
		if lit, ok := n.(*ast.BasicLit); ok && lit.Value == "0" {
			names = append(names, "tree")
		}
		return true
	})
	tier := tierUnknown
	for _, name := range names {
		switch {
		case strings.Contains(name, "page"):
			return tierPage
		case strings.Contains(name, "cell"):
			tier = tierCell
		case strings.Contains(name, "tree") && tier < tierCell:
			tier = tierTree
		}
	}
	return tier
}
