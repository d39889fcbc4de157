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

func funcDecl(files []*ast.File, name string) *ast.FuncDecl {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

func TestCFGShapes(t *testing.T) {
	_, files, _, _ := typecheck(t, `package p

import "errors"

func branches(n int) (int, error) {
	total := 0
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			continue
		}
		total += i
		if total > 100 {
			break
		}
	}
	switch {
	case n < 0:
		return 0, errors.New("negative")
	case n == 0:
		goto done
	}
	total++
done:
	return total, nil
}
`)
	cfg := NewCFG(funcDecl(files, "branches").Body)
	if cfg.Entry == nil || cfg.Exit == nil || len(cfg.Blocks) < 6 {
		t.Fatalf("implausible CFG: %d blocks", len(cfg.Blocks))
	}
	// Every reachable block's successors must be in the block list, and
	// the exit must be reachable from the entry.
	index := make(map[*Block]bool)
	for _, b := range cfg.Blocks {
		index[b] = true
	}
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			if !index[s] {
				t.Fatalf("block %d has successor outside Blocks", b.Index)
			}
			walk(s)
		}
	}
	walk(cfg.Entry)
	if !seen[cfg.Exit] {
		t.Fatal("exit unreachable from entry")
	}
}

// TestCFGMustFail: the blocks that must fail — the error return and the
// panic — are the ones Fails reports; the loop's steady state and the
// nil return are not.
func TestCFGMustFail(t *testing.T) {
	_, files, _, _ := typecheck(t, `package p

import "fmt"

func f(xs []int) (int, error) {
	sum := 0
	for _, x := range xs {
		if x < 0 {
			return 0, fmt.Errorf("negative %d", x)
		}
		if x == 0 {
			sum--
			continue
		}
		sum += x
	}
	if sum > 1000 {
		panic("overflow")
	}
	return sum, nil
}
`)
	cfg := NewCFG(funcDecl(files, "f").Body)

	returns, panics := 0, 0
	for _, b := range cfg.Blocks {
		if !b.Fails() {
			continue
		}
		switch last := b.Nodes[len(b.Nodes)-1]; {
		case isPanicNode(last):
			panics++
		default:
			if r, ok := last.(*ast.ReturnStmt); !ok || !returnsNonNil(r) {
				t.Errorf("block %d fails but does not end in an error return or a panic", b.Index)
			}
			returns++
		}
	}
	if returns != 1 || panics != 1 {
		t.Errorf("failing blocks: %d error returns and %d panics, want 1 and 1", returns, panics)
	}
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
