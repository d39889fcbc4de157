// Package lint assembles the burlint analyzer suite: the repo's
// concurrency and durability invariants, encoded as static checks.
//
// Each analyzer's package doc states the invariant it enforces and the
// bug (or PR) it descends from; README.md has the overview table. Run
// the suite with
//
//	go build -o bin/burlint ./cmd/burlint
//	go vet -vettool=$PWD/bin/burlint ./...
//
// Suppress a finding with `//burlint:ignore <analyzer> <reason>` on the
// flagged line or the line above — the reason is mandatory and
// machine-checked.
//
// The suite holds only checks that nothing else performs. An invariant
// a test executes (WAL-before-ack and undo-on-failure: the failure
// matrices in the root package) or a stock vet pass already reports
// (copied locks: copylocks) has no analyzer here.
package lint

import (
	"burtree/internal/lint/analyzers/atomicwrite"
	"burtree/internal/lint/analyzers/closecheck"
	"burtree/internal/lint/analyzers/goroutinelife"
	"burtree/internal/lint/analyzers/hotpath"
	"burtree/internal/lint/analyzers/ignoredirective"
	"burtree/internal/lint/analyzers/lockorder"
	"burtree/internal/lint/framework"
)

// invariant is the five invariant analyzers, without the directive
// validator.
var invariant = []*framework.Analyzer{
	atomicwrite.Analyzer,
	closecheck.Analyzer,
	goroutinelife.Analyzer,
	hotpath.Analyzer,
	lockorder.Analyzer,
}

// All returns the full suite: the invariant analyzers plus the
// //burlint:ignore directive validator (which needs their names).
func All() []*framework.Analyzer {
	names := make([]string, len(invariant))
	for i, a := range invariant {
		names[i] = a.Name
	}
	return append(append([]*framework.Analyzer(nil), invariant...), ignoredirective.New(names))
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *framework.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
