// Command burlint runs the repo's invariant analyzer suite
// (internal/lint: closecheck). It speaks go vet's -vettool protocol (the
// unitchecker contract) and nothing else: go vet invokes the tool once
// per compilation unit — test units included — with a *.cfg file
// describing sources and export data, and fails the run on a package
// that does not type-check.
//
//	go build -o bin/burlint ./cmd/burlint
//	go vet -vettool=$PWD/bin/burlint ./...
//
// Diagnostics print as file:line:col: message; the exit status is 1 if
// there is any. `burlint -list` describes the suite.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"burtree/internal/lint"
	"burtree/internal/lint/framework"
	"burtree/internal/lint/loader"
)

func main() {
	// go vet probes the tool with -V=full and -flags before handing it
	// compilation units; both must be handled before normal flag
	// parsing (see cmd/go/internal/work/buildid.go and
	// cmd/go/internal/vet/vetflag.go).
	args := os.Args[1:]
	if len(args) == 1 && (args[0] == "-V=full" || args[0] == "--V=full") {
		printVersion()
		return
	}
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		// burlint defines no tool-specific flags.
		fmt.Println("[]")
		return
	}

	list := flag.Bool("list", false, "describe the suite: each analyzer (closecheck alone) and its invariant")
	flag.Usage = usage
	flag.Parse()
	if *list {
		listAnalyzers()
		return
	}

	if rest := flag.Args(); len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		os.Exit(unitcheck(rest[0]))
	}
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  go vet -vettool=$(command -v burlint) [packages]
  burlint -list            describe the suite (closecheck) and its invariant
`)
}

func listAnalyzers() {
	for _, a := range lint.All() {
		fmt.Printf("%s\n    %s\n", a.Name, a.Doc)
	}
}

// printVersion answers go vet's -V=full probe. The token embeds a
// content hash of the executable so the build cache invalidates vet
// results when the tool changes.
func printVersion() {
	name, token := "burlint", "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				token = fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
			_ = f.Close() // read-only hash; nothing to surface
		}
	}
	fmt.Printf("%s version %s\n", name, token)
}

// vetConfig is the unitchecker Config schema go vet writes (see
// cmd/vendor/golang.org/x/tools/go/analysis/unitchecker).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one go vet compilation unit.
func unitcheck(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "burlint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "burlint: parsing %s: %v\n", cfgFile, err)
		return 2
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(cfg)
			}
			fmt.Fprintln(os.Stderr, "burlint:", err)
			return 2
		}
		files = append(files, f)
	}

	// Resolve imports through the unit's ImportMap to export data in
	// PackageFile — the same lookup the real unitchecker performs.
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(compiler, runtime.GOARCH),
		GoVersion: goVersion(cfg.GoVersion),
	}
	info := loader.NewInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg)
		}
		fmt.Fprintln(os.Stderr, "burlint:", err)
		return 2
	}

	diags, err := framework.RunAnalyzers(fset, files, pkg, info, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "burlint:", err)
		return 2
	}
	if code := writeVetx(cfg); code != 0 {
		return code
	}
	if cfg.VetxOnly || len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	return 1
}

// writeVetx writes the (empty) facts file go vet expects at
// VetxOutput; burlint's analyzers exchange no facts. It is a go vet
// cache entry keyed by content hash, so a torn write is a cache miss.
func writeVetx(cfg vetConfig) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	if err := os.MkdirAll(filepath.Dir(cfg.VetxOutput), 0o777); err == nil {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "burlint:", err)
			return 2
		}
	}
	return 0
}

// goVersion sanitizes the config's language version for go/types,
// which rejects anything not of the form "go1.N[.M]".
func goVersion(v string) string {
	if strings.HasPrefix(v, "go1") {
		return v
	}
	return ""
}
