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
// A finding is fixed, never suppressed: the suite has no ignore
// directive.
//
// The suite holds only checks that no test can make. An invariant a
// test executes has no analyzer here: WAL-before-ack and
// undo-on-failure (the failure matrices in the root package), goroutine
// lifetime (TestCloseJoinsEveryGoroutine and the failed-open and
// failed-recovery tests), atomic snapshot replacement
// (TestFailedCheckpointKeepsPreviousSnapshot) and the per-op allocation
// budget (make allocs: TestAllocBudget's windows and the per-layer
// zero-allocation tests). Neither has one that a stock vet pass already
// reports (copied locks: copylocks). What is left:
//
//   - lockorder guards a protocol whose breach no test observes
//     reliably: a lock-order inversion deadlocks only under the wrong
//     interleaving. It caught a planted regression by mutation.
//   - closecheck guards a dropped Close or Sync error. No test can make
//     one of those calls fail until the store and the log sit on a
//     fault-injecting file layer; when they do, the analyzer's case is
//     to be made again.
package lint

import (
	"burtree/internal/lint/analyzers/closecheck"
	"burtree/internal/lint/analyzers/lockorder"
	"burtree/internal/lint/framework"
)

// All returns the full suite.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{closecheck.Analyzer, lockorder.Analyzer}
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
