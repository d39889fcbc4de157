package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Program is the interprocedural view of one package under analysis:
// every declared function with its (lazily built) CFG, a call graph
// whose edges are resolved statically — including devirtualized calls
// through interfaces to their package-local implementations — and a
// facts store so analyzers can share computed summaries within one
// RunAnalyzers invocation.
//
// The graph covers the package under analysis: calls into other
// packages appear as call sites with no targets (the vet unitchecker
// protocol analyzes one package at a time, so cross-package bodies are
// not available). Analyzers treat target-less calls according to their
// own soundness needs.
type Program struct {
	Fset  *token.FileSet
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File

	// Funcs indexes every function and method declared in the package.
	Funcs map[*types.Func]*Func

	facts map[string]any
}

// A Func is one declared function or method with its call sites.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	// Calls lists every call expression syntactically inside the
	// function, including inside its function literals (attributed to
	// the declaring function: if the literal runs, it runs on the
	// declarer's behalf).
	Calls []*CallSite

	cfg *CFG
}

// A CallSite is one call expression with its resolved targets.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the statically resolved function or method, nil for
	// calls through function values. For interface method calls this
	// is the interface's method object.
	Callee *types.Func
	// Targets lists the package-local functions the call can reach:
	// the callee itself if declared here, or — for interface method
	// calls — every package-local implementation's method.
	Targets []*Func
}

// NewProgram indexes the package's functions and resolves the call
// graph. It is built once per RunAnalyzers invocation and shared by
// every analyzer through Pass.Prog.
func NewProgram(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Program {
	p := &Program{
		Fset:  fset,
		Pkg:   pkg,
		Info:  info,
		Files: files,
		Funcs: make(map[*types.Func]*Func),
		facts: make(map[string]any),
	}
	if pkg == nil || info == nil {
		return p // untyped run (framework tests): no call graph
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			p.Funcs[obj] = &Func{Obj: obj, Decl: fd}
		}
	}
	for _, fn := range p.Funcs {
		p.resolveCalls(fn)
	}
	return p
}

// FuncOf returns the Func for a declared function object, or nil.
func (p *Program) FuncOf(obj *types.Func) *Func {
	return p.Funcs[obj]
}

// CFGOf returns fn's control-flow graph, building it on first use.
// Nil for functions without bodies.
func (p *Program) CFGOf(fn *Func) *CFG {
	if fn.cfg == nil && fn.Decl.Body != nil {
		fn.cfg = NewCFG(fn.Decl.Body)
	}
	return fn.cfg
}

// SortedFuncs returns the package's functions in source order, so
// analyzer output is deterministic.
func (p *Program) SortedFuncs() []*Func {
	out := make([]*Func, 0, len(p.Funcs))
	for _, fn := range p.Funcs {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// FactOnce returns the fact stored under key, computing and caching it
// on first request. Facts live for one RunAnalyzers invocation, so an
// expensive summary (lockorder's lock-acquisition closure) is computed
// once per package however often it is asked for.
func (p *Program) FactOnce(key string, compute func() any) any {
	if v, ok := p.facts[key]; ok {
		return v
	}
	v := compute()
	p.facts[key] = v
	return v
}

// StaticCallee resolves the function or method a call names
// statically: a plain function, a concrete method, or an interface
// method. Nil for calls through function-typed values and type
// conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// resolveCalls walks fn's body, recording every call with its
// package-local targets, devirtualizing interface method calls to
// local implementations.
func (p *Program) resolveCalls(fn *Func) {
	if fn.Decl.Body == nil {
		return
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := StaticCallee(p.Info, call)
		cs := &CallSite{Call: call, Callee: callee}
		if callee != nil {
			if target := p.Funcs[callee]; target != nil {
				cs.Targets = []*Func{target}
			} else if isInterfaceMethod(callee) {
				cs.Targets = p.devirtualize(callee)
			}
		}
		fn.Calls = append(fn.Calls, cs)
		return true
	})
}

// devirtualize returns the package-local methods that can satisfy a
// call to the interface method m: for each named local type whose
// (pointer) method set implements m's interface, the concrete method
// with m's name.
func (p *Program) devirtualize(m *types.Func) []*Func {
	iface, ok := m.Signature().Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Func
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		ptr := types.NewPointer(n)
		if !types.Implements(ptr, iface) && !types.Implements(n, iface) {
			continue
		}
		sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name())
		if sel == nil {
			continue
		}
		if obj, ok := sel.Obj().(*types.Func); ok {
			if fn := p.Funcs[obj]; fn != nil {
				out = append(out, fn)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

func isInterfaceMethod(f *types.Func) bool {
	recv := f.Signature().Recv()
	if recv == nil {
		return false
	}
	_, ok := recv.Type().Underlying().(*types.Interface)
	return ok
}
