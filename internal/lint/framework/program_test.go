package framework

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheck parses and type-checks one source file, returning what
// NewProgram needs.
func typecheck(t *testing.T, src string) (*token.FileSet, []*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, []*ast.File{f}, pkg, info
}

func TestProgramCallGraph(t *testing.T) {
	fset, files, pkg, info := typecheck(t, `package p

type applier interface{ apply(int) int }

type double struct{}

func (double) apply(x int) int { return 2 * x }

type negate struct{}

func (*negate) apply(x int) int { return helper(-x) }

func helper(x int) int { return x }

func root(a applier, xs []int) int {
	total := 0
	for _, x := range xs {
		total += a.apply(x)
	}
	return total
}

func unrelated() {}
`)
	prog := NewProgram(fset, files, pkg, info)
	if len(prog.Funcs) != 5 {
		t.Fatalf("want 5 funcs, got %d", len(prog.Funcs))
	}
	var root *Func
	for _, fn := range prog.Funcs {
		if fn.Obj.Name() == "root" {
			root = fn
		}
	}
	if root == nil {
		t.Fatal("root not indexed")
	}

	// The interface call in root must devirtualize to both local
	// implementations, and (*negate).apply must resolve its call to
	// helper; nothing reaches unrelated.
	called := make(map[string]int)
	for _, fn := range prog.Funcs {
		for _, cs := range fn.Calls {
			for _, t := range cs.Targets {
				called[t.Obj.Name()]++
			}
		}
	}
	if called["apply"] != 2 || called["helper"] != 1 || called["unrelated"] != 0 {
		t.Errorf("call targets %v, want apply×2 (devirtualized), helper×1, unrelated×0", called)
	}
	for _, cs := range root.Calls {
		if len(cs.Targets) != 2 {
			t.Errorf("root's interface call has %d targets, want both implementations", len(cs.Targets))
		}
	}

	// Facts: computed once, shared.
	calls := 0
	get := func() any {
		return prog.FactOnce("k", func() any { calls++; return 42 })
	}
	if get() != 42 || get() != 42 || calls != 1 {
		t.Errorf("FactOnce recomputed: calls=%d", calls)
	}
}
