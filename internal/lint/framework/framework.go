// Package framework is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough driver-independent
// structure to write this repo's invariant analyzers and run them from
// two drivers (the go vet -vettool protocol and the analysistest
// fixture runner). The API mirrors go/analysis deliberately —
// Analyzer{Name, Doc, Run}, Pass with Fset/Files/Pkg/TypesInfo and
// Reportf — so the suite can be rebased onto x/tools wholesale if the
// dependency ever becomes available.
//
// Suppression: a diagnostic is suppressed by a
//
//	//burlint:ignore <analyzer> <reason>
//
// comment on the same line as the diagnostic or on the line directly
// above it. The reason is mandatory; the ignoredirective analyzer
// rejects directives without one (and directives naming no known
// analyzer), so an ignore can never silently widen.
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
	// Name identifies the analyzer in diagnostics and in
	// //burlint:ignore directives.
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

	// Prog is the package's interprocedural view — functions, CFGs,
	// call graph, shared facts — built once per RunAnalyzers invocation
	// and shared by every analyzer in the suite.
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a finding at pos unless an ignore directive covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file declaring pos is a _test.go
// file. The invariant analyzers skip test files: the contracts they
// encode (lock order, goroutine lifetime, artifact atomicity) bind the
// engine, not its test harnesses, and test idiom (deferred unchecked
// closes, scratch files) would otherwise drown the signal.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// IgnorePrefix introduces an ignore directive comment.
const IgnorePrefix = "//burlint:ignore"

// A Directive is one parsed //burlint:ignore comment.
type Directive struct {
	Pos      token.Pos
	Line     int    // line the comment is on
	Target   int    // line the suppression covers (0 for file-scope)
	File     bool   // directive precedes the package clause: whole file
	Analyzer string // first word after the prefix ("" if missing)
	Reason   string // rest of the comment ("" if missing)
}

// Directives parses every //burlint:ignore comment in f. A trailing
// directive (code earlier on its line) covers its own line; a
// directive standing alone on a line covers the next one — each form
// covers exactly one line, so a suppression can never silently widen
// to a neighbor. A directive above the package clause is file-scope:
// it suppresses the named analyzer for the whole file (the
// ignoredirective analyzer rejects this form for analyzers that
// demand per-statement audits, e.g. hotpath).
func Directives(fset *token.FileSet, f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, IgnorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, IgnorePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //burlint:ignoreXXX — not a directive
			}
			d := Directive{Pos: c.Pos(), Line: fset.Position(c.Pos()).Line}
			switch {
			case c.Pos() < f.Package:
				d.File = true
			case hasCodeBefore(fset, f, c):
				d.Target = d.Line
			default:
				d.Target = d.Line + 1
			}
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				d.Analyzer = fields[0]
				d.Reason = strings.TrimSpace(strings.Join(fields[1:], " "))
			}
			out = append(out, d)
		}
	}
	return out
}

// hasCodeBefore reports whether any code ends on c's line before c —
// i.e. c is a trailing comment.
func hasCodeBefore(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		if n.End() <= c.Pos() && fset.Position(n.End()).Line == line {
			found = true
		}
		return !found
	})
	return found
}

// ignoreKey addresses a directive by file and line.
type ignoreKey struct {
	file string
	line int
}

// RunAnalyzers applies the analyzers to one type-checked package and
// returns the surviving diagnostics sorted by position. Suppression is
// applied here so every driver gets identical semantics.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	ignores := make(map[ignoreKey][]Directive)
	fileIgnores := make(map[string]map[string]bool)
	for _, f := range files {
		name := fset.File(f.Pos()).Name()
		for _, d := range Directives(fset, f) {
			if d.File {
				if fileIgnores[name] == nil {
					fileIgnores[name] = make(map[string]bool)
				}
				fileIgnores[name][d.Analyzer] = true
				continue
			}
			k := ignoreKey{file: name, line: d.Target}
			ignores[k] = append(ignores[k], d)
		}
	}
	suppressed := func(d Diagnostic) bool {
		posn := fset.Position(d.Pos)
		if fileIgnores[posn.Filename][d.Analyzer] {
			return true
		}
		for _, dir := range ignores[ignoreKey{file: posn.Filename, line: posn.Line}] {
			if dir.Analyzer == d.Analyzer {
				return true
			}
		}
		return false
	}

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
			report: func(d Diagnostic) {
				if !suppressed(d) {
					out = append(out, d)
				}
			},
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
