// Package framework is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough driver-independent
// structure to write this repo's invariant analyzers and run them from
// two drivers (the go vet -vettool protocol and the analysistest
// fixture runner). The API mirrors go/analysis deliberately —
// Analyzer{Name, Doc, Run}, Pass with Fset/Files/Pkg/TypesInfo and
// Reportf — so the suite can be rebased onto x/tools wholesale if the
// dependency ever becomes available.
//
// There is no suppression: every diagnostic an analyzer reports is
// returned.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description shown by burlint help: the
	// invariant encoded and where it came from.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the package's interprocedural view — functions, call
	// graph, shared facts — built once per RunAnalyzers invocation and
	// shared by every analyzer in the suite.
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file declaring pos is a _test.go
// file. The invariant analyzers skip test files: the contracts they
// encode (lock order, the allocation budget, checked closes) bind the
// engine, not its test harnesses, and test idiom (unchecked closes,
// scratch allocations) would otherwise drown the signal.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// RunAnalyzers applies the analyzers to one type-checked package and
// returns their diagnostics sorted by position.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := NewProgram(fset, files, pkg, info)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Prog:      prog,
			report:    func(d Diagnostic) { out = append(out, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// PkgTail reports whether the package path's last segment equals tail
// ("burtree/internal/dgl" matches "dgl"). Analyzers match collaborator
// packages this way so analysistest fixtures can declare small local
// stand-ins ("dgl", "wal") with the real packages' shapes.
func PkgTail(pkg *types.Package, tail string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == tail || strings.HasSuffix(path, "/"+tail)
}

// NamedFrom reports whether t (after pointer indirection) is a named
// type with the given name declared in a package whose path ends in
// pkgTail.
func NamedFrom(t types.Type, pkgTail, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && PkgTail(obj.Pkg(), pkgTail)
}

// ReceiverOf resolves the method called by a selector call expression,
// returning the receiver expression's type and the method name. ok is
// false for non-selector calls.
func ReceiverOf(info *types.Info, call *ast.CallExpr) (types.Type, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil, "", false
	}
	return tv.Type, sel.Sel.Name, true
}
