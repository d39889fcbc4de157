// Package loader is the fixture loader of the analyzer tests: it
// type-checks packages under a testdata/src tree without
// golang.org/x/tools — ASTs from go/parser, types from go/types, and
// the stdlib packages a fixture imports from the compiled export data
// `go list -export` names, read by the stdlib gc importer. (Outside the
// tests burlint loads nothing itself: go vet hands it each compilation
// unit with its export data.)
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Export     string
}

// goList runs `go list -deps -export -json` over the patterns and
// decodes the object stream.
func goList(patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// NewInfo allocates the types.Info maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Check parses nothing and type-checks the given files as one package.
func Check(path string, fset *token.FileSet, files []*ast.File, imp types.Importer, goVersion string) (*types.Package, *types.Info, error) {
	conf := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
	}
	info := NewInfo()
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// stdExports caches export-data paths for non-fixture (stdlib) imports
// across every fixture load in a test process; `go list -export`
// compiles on first use and is pure cache hits afterwards.
var stdExports = struct {
	sync.Mutex
	files map[string]string
}{files: map[string]string{}}

// stdExportFile resolves one stdlib import path to its export data,
// populating the cache with the package's whole dependency closure.
func stdExportFile(path string) (string, error) {
	stdExports.Lock()
	defer stdExports.Unlock()
	if f, ok := stdExports.files[path]; ok {
		return f, nil
	}
	listed, err := goList([]string{path})
	if err != nil {
		return "", err
	}
	for _, p := range listed {
		if p.Export != "" {
			stdExports.files[p.ImportPath] = p.Export
		}
	}
	f, ok := stdExports.files[path]
	if !ok {
		return "", fmt.Errorf("no export data for %q", path)
	}
	return f, nil
}

// FixtureLoader type-checks packages rooted at a testdata/src
// directory, the analysistest convention: an import path resolves to
// root/<path> if that directory exists, and to the real (stdlib)
// package otherwise. Fixture packages are parsed and type-checked from
// source so fixtures can declare small local stand-ins for the
// engine's packages.
type FixtureLoader struct {
	Root string // the testdata/src directory
	Fset *token.FileSet

	loaded map[string]*Package
	std    types.Importer // one gc importer, so shared deps keep one identity
}

// NewFixtureLoader returns a loader rooted at root.
func NewFixtureLoader(root string) *FixtureLoader {
	l := &FixtureLoader{Root: root, Fset: token.NewFileSet(), loaded: map[string]*Package{}}
	l.std = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := stdExportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	return l
}

// Import implements types.Importer over fixture and stdlib packages.
func (l *FixtureLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.Root, filepath.FromSlash(path)); isDir(dir) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load type-checks the fixture package at root/<path> (memoized).
func (l *FixtureLoader) Load(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in fixture %s", dir)
	}
	tpkg, info, err := Check(path, l.Fset, files, l, "")
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.loaded[path] = pkg
	return pkg, nil
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
