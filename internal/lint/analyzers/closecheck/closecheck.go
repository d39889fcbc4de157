// Package closecheck flags statements that silently discard the error
// of a Close or Sync call.
//
// Invariant: on the durability path a failed Close/Sync means bytes
// may not be on disk — a WAL segment, snapshot file, or page store
// whose close error is dropped can acknowledge state that a crash then
// loses (the WAL poisons itself on a failed fsync for exactly this
// reason). A discard must therefore be explicit: either handle the
// error, or write `_ = f.Close()` so the decision is visible and
// reviewable. Deferred closes are not flagged — the read-path
// `defer f.Close()` idiom is harmless and the write paths all return
// their close errors through the atomicfile/WAL helpers.
//
// This is a static check because no test can make the bug visible
// today: the store is in memory and the log and the snapshot writer sit
// on the real file system, so no test can make a Close or a Sync fail.
// Once a fault-injecting file layer sits under the log and the store, a
// test can fail each of these calls and observe what a dropped error
// does, and this analyzer has to earn its place against that test.
package closecheck

import (
	"go/ast"
	"go/types"

	"burtree/internal/lint/framework"
)

// Analyzer is the closecheck analyzer.
var Analyzer = &framework.Analyzer{
	Name: "closecheck",
	Doc: "flags Close()/Sync() calls whose error result is silently discarded; " +
		"on the durability path a dropped close error can acknowledge state a crash then loses " +
		"(discard explicitly with `_ = f.Close()` if the error truly cannot matter)",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			_, name, ok := framework.ReceiverOf(pass.TypesInfo, call)
			if !ok || (name != "Close" && name != "Sync") || len(call.Args) != 0 {
				return true
			}
			if !returnsOnlyError(pass.TypesInfo, call) {
				return true
			}
			pass.Reportf(call.Pos(), "%s error silently discarded; handle it or discard explicitly with `_ = %s()`", name, exprString(call.Fun))
			return true
		})
	}
	return nil
}

// returnsOnlyError reports whether the call produces exactly one
// value of type error.
func returnsOnlyError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// exprString renders a selector chain like "f.Close" for messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "x"
	}
}
