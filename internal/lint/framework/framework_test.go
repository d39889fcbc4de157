package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const directiveSrc = `package p

func f() {
	//burlint:ignore closecheck error path: open failure is the one to surface
	a()
	//burlint:ignore lockorder
	b()
	//burlint:ignore
	c()
	//burlint:ignoreXXX not a directive at all
	d()
}
`

func parse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestDirectives(t *testing.T) {
	fset, f := parse(t, directiveSrc)
	got := Directives(fset, f)
	want := []struct {
		analyzer, reason string
	}{
		{"closecheck", "error path: open failure is the one to surface"},
		{"lockorder", ""},
		{"", ""},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d directives, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Analyzer != w.analyzer || got[i].Reason != w.reason {
			t.Errorf("directive %d = {%q %q}, want {%q %q}", i, got[i].Analyzer, got[i].Reason, w.analyzer, w.reason)
		}
	}
}

const suppressSrc = `package p

func f() {
	//burlint:ignore demo covered by the integration harness
	a()
	b()
	c() //burlint:ignore demo same-line form
	d() //burlint:ignore other directive for a different analyzer
}
`

// TestSuppression checks the two directive placements (line above,
// same line) and that a directive only silences its own analyzer.
func TestSuppression(t *testing.T) {
	fset, f := parse(t, suppressSrc)

	// A fake analyzer that reports on every call statement.
	demo := &Analyzer{
		Name: "demo",
		Doc:  "reports every call, for suppression testing",
		Run: func(pass *Pass) error {
			ast.Inspect(pass.Files[0], func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					pass.Reportf(call.Pos(), "call")
				}
				return true
			})
			return nil
		},
	}

	diags, err := RunAnalyzers(fset, []*ast.File{f}, nil, nil, []*Analyzer{demo})
	if err != nil {
		t.Fatal(err)
	}
	// a() suppressed by the line above, c() by the same line; b() and
	// d() (wrong analyzer name) survive.
	var lines []int
	for _, d := range diags {
		lines = append(lines, fset.Position(d.Pos).Line)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics on lines %v, want 2", len(diags), lines)
	}
	bLine, dLine := 6, 8
	if lines[0] != bLine || lines[1] != dLine {
		t.Errorf("diagnostics on lines %v, want [%d %d]", lines, bLine, dLine)
	}
}
