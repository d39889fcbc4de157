// Package hotpath exercises the hotpath analyzer: functions reachable
// from //burlint:hotpath roots must not heap-allocate per op.
package hotpath

import "fmt"

type op struct {
	id   uint64
	x, y float64
}

type table struct {
	objects map[uint64]op
}

// applier is the strategy hook: the analyzer devirtualizes its calls
// to the package-local implementations.
type applier interface {
	apply(t *table, o op) error
}

// ApplyBatch is the hot-path root: one loop iteration is one update.
// The pre-loop make is hoisted setup (not flagged); the in-loop make
// is the regression this fixture seeds, and so is the slice literal;
// the error returns are cold by construction.
//
//burlint:hotpath
func (t *table) ApplyBatch(a applier, ops []op) error {
	seen := make(map[uint64]bool, len(ops))
	for _, o := range ops {
		if seen[o.id] {
			return fmt.Errorf("duplicate op %d", o.id)
		}
		seen[o.id] = true
		scratch := make([]op, 0, 1) // want `make allocates per op in ApplyBatch \(hot via ApplyBatch\)`
		_ = scratch
		sample := []uint64{o.id} // want `composite literal allocates per op in ApplyBatch \(hot via ApplyBatch\)`
		_ = sample
		t.trace(o)
		if err := a.apply(t, o); err != nil {
			return fmt.Errorf("apply %d: %w", o.id, err)
		}
	}
	return nil
}

// bottomUp is the implementation the interface call resolves to: it
// runs per op in its entirety, so its whole body is budgeted.
type bottomUp struct{}

func (bottomUp) apply(t *table, o op) error {
	probe := func() uint64 { return o.id } // want `closure allocated per op in apply \(hot via ApplyBatch\)`
	t.objects[probe()] = o
	return nil
}

// trace is called from the hot loop: per-op transitively.
func (t *table) trace(o op) {
	sink(o.id) // want `argument boxed into interface per op in trace \(hot via ApplyBatch\)`
}

func sink(args ...any) {}

// rebuild is unreachable from any root: allocations here are free.
func rebuild(n int) []op {
	out := make([]op, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, op{id: uint64(i)})
		extra := make([]op, 1)
		_ = extra
	}
	return out
}
