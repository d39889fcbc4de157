// Package analysistest runs analyzers over fixture packages under a
// testdata/src tree and checks their diagnostics against `// want`
// expectations, following the x/tools analysistest convention:
//
//	testdata/src/<pkg>/fixture.go:
//	    f.Close() // want `Close error silently discarded`
//
// Each `// want` comment holds one or more backquoted regexps; every
// diagnostic on that line must match one expectation and every
// expectation must be matched by exactly one diagnostic. A line with
// no want comment expects no diagnostics — so negative fixtures are
// just clean code that the test asserts stays clean.
package analysistest

import (
	"go/token"
	"regexp"

	"burtree/internal/lint/framework"
	"burtree/internal/lint/loader"
)

// T is the subset of *testing.T the runner needs.
type T interface {
	Errorf(format string, args ...any)
	Helper()
}

// Run loads the fixture package at dir/src/<path> and applies the
// analyzer, comparing diagnostics against // want expectations.
func Run(t T, dir string, a *framework.Analyzer, path string) {
	t.Helper()
	l := loader.NewFixtureLoader(dir + "/src")
	pkg, err := l.Load(path)
	if err != nil {
		t.Errorf("loading fixture %s: %v", path, err)
		return
	}
	diags, err := framework.RunAnalyzers(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, []*framework.Analyzer{a})
	if err != nil {
		t.Errorf("running analyzers on %s: %v", path, err)
		return
	}
	checkWants(t, pkg, diags)
}

// expectation is one backquoted regexp from a want comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("//\\s*want\\s+((?:`[^`]*`\\s*)+)")
var backquoted = regexp.MustCompile("`([^`]*)`")

// checkWants cross-checks diagnostics against the fixture's want
// comments.
func checkWants(t T, pkg *loader.Package, diags []framework.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				for _, q := range backquoted.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(q[1])
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", posn, q[1], err)
						continue
					}
					wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		posn := pkg.Fset.Position(d.Pos)
		if w := findWant(wants, posn, d.Message); w != nil {
			w.matched = true
		} else {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", posn, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// findWant returns the first unmatched expectation on the diagnostic's
// line whose regexp matches the message.
func findWant(wants []*expectation, posn token.Position, msg string) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}
