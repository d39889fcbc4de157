package burtree

import (
	"errors"
	"math"
	"testing"
	"time"

	"burtree/internal/core"
)

// This file executes the two failures the WAL matrix (walfailure_test.go)
// never reaches, both before the log: a write the reserve stage must turn
// away (an invalid position), and a tree operation that fails after the
// table has been reserved (the apply-failure undo). In both the contract
// is the matrix's: the call errors, the queryable state is the one the
// contract names, the invariants hold, and recovery agrees.

var failureStrategies = []Strategy{GeneralizedBottomUp, TopDown}

// TestInvalidPointLeavesIndexUntouched: an insert, a move or a batched
// move to a NaN position fails at reserve on every front-end, with or
// without the delta tier — nothing is recorded, absorbed or applied.
func TestInvalidPointLeavesIndexUntouched(t *testing.T) {
	nan := Point{X: 0.3, Y: math.NaN()}
	ops := map[string]func(t *testing.T, x walFailureIndex) error{
		"Insert": func(_ *testing.T, x walFailureIndex) error { return x.Insert(9, nan) },
		"Update": func(_ *testing.T, x walFailureIndex) error { return x.Update(1, nan) },
		"UpdateBatch": func(t *testing.T, x walFailureIndex) error {
			// The valid change must not land either: the batch fails whole.
			res, err := x.UpdateBatch([]Change{{ID: 2, To: Point{X: 0.25, Y: 0.25}}, {ID: 1, To: nan}})
			if res != (BatchResult{}) {
				t.Errorf("rejected batch reports %+v, want the zero result", res)
			}
			return err
		},
	}
	for _, fe := range walFailureFrontEnds[:3] {
		for _, tier := range walFailureTiers {
			for _, strategy := range failureStrategies {
				for name, op := range ops {
					t.Run(fe.name+"/"+tier.name+"/"+strategy.String()+"/"+name, func(t *testing.T) {
						x, err := fe.open(Options{Strategy: strategy, PageSize: 256, BufferPages: 8,
							ExpectedObjects: 128, Memtable: Memtable{Enabled: tier.memtable}})
						if err != nil {
							t.Fatal(err)
						}
						defer x.Close()
						before := applyFailureObjects(t, x)
						if err := op(t, x); err == nil {
							t.Fatal("a NaN position was accepted")
						}
						expectState(t, x, before)
					})
				}
			}
		}
	}
}

// applyFailureObjects inserts four objects that share a shard of
// walFailureShards and returns them.
func applyFailureObjects(t *testing.T, x walFailureIndex) map[uint64]Point {
	t.Helper()
	objects := map[uint64]Point{1: {X: 0.1, Y: 0.1}, 2: {X: 0.2, Y: 0.3}, 3: {X: 0.3, Y: 0.2}, 4: {X: 0.15, Y: 0.35}}
	for id, p := range objects {
		if err := x.Insert(id, p); err != nil {
			t.Fatal(err)
		}
	}
	return objects
}

var errInjected = errors.New("injected tree failure")

// failingTree wraps a stack's tree and, once armed, fails the next
// mutation without touching the tree — what a full page store or a
// tree-level rejection leaves behind. An armed UpdateBatch applies the
// first half of its changes and fails the rest.
type failingTree struct {
	treeOps
	armed bool
}

func (f *failingTree) trip() bool {
	was := f.armed
	f.armed = false
	return was
}

func (f *failingTree) Insert(id uint64, p Point) error {
	if f.trip() {
		return errInjected
	}
	return f.treeOps.Insert(id, p)
}

func (f *failingTree) Update(id uint64, old, p Point) error {
	if f.trip() {
		return errInjected
	}
	return f.treeOps.Update(id, old, p)
}

func (f *failingTree) Delete(id uint64, at Point) error {
	if f.trip() {
		return errInjected
	}
	return f.treeOps.Delete(id, at)
}

func (f *failingTree) UpdateBatch(changes []core.BatchChange, done func(core.BatchChange)) (core.BatchStats, error) {
	if !f.trip() {
		return f.treeOps.UpdateBatch(changes, done)
	}
	st, err := f.treeOps.UpdateBatch(changes[:len(changes)/2], done)
	return st, errors.Join(err, errInjected)
}

// failNextMutation arms the tree of every stack of idx, or with only set,
// the tree of the stack owning that point.
func failNextMutation(idx walFailureIndex, only *Point) {
	x := indexOf(idx)
	stacks := x.shards
	if only != nil {
		stacks = stacks[x.router.ShardOf(*only):][:1]
	}
	for _, s := range stacks {
		s.tree = &failingTree{treeOps: s.tree, armed: true}
	}
}

// TestApplyFailureMatrix: a tree operation that fails after the write was
// reserved leaves the table as it was (the table learns a tree-path change
// only as it lands; arrive's put-back for a cross-shard move), and a batch
// that fails mid-way keeps exactly its applied prefix — applied, logged
// and counted.
func TestApplyFailureMatrix(t *testing.T) {
	near, far := Point{X: 0.4, Y: 0.4}, Point{X: 0.9, Y: 0.9}
	type row struct {
		name string
		arm  *Point // the one shard whose tree fails; nil for every tree
		run  func(t *testing.T, x walFailureIndex, want map[uint64]Point) error
	}
	rows := []row{
		{name: "Insert", run: func(_ *testing.T, x walFailureIndex, _ map[uint64]Point) error { return x.Insert(9, near) }},
		{name: "Update", run: func(_ *testing.T, x walFailureIndex, _ map[uint64]Point) error { return x.Update(1, near) }},
		{name: "Delete", run: func(_ *testing.T, x walFailureIndex, _ map[uint64]Point) error { return x.Delete(1) }},
		{name: "UpdateBatch", run: func(t *testing.T, x walFailureIndex, want map[uint64]Point) error {
			var changes []Change
			for id, p := range want {
				changes = append(changes, Change{ID: id, To: Point{X: p.X + 0.05, Y: p.Y + 0.05}})
			}
			res, err := x.UpdateBatch(changes)
			// Which half the tree applied is its choice (leaf order); the
			// table says which, and the checks hold the tree, the search
			// and the recovered log to the same answer.
			moved := 0
			for _, c := range changes {
				if p, _ := x.Location(c.ID); p == c.To {
					want[c.ID] = c.To
					moved++
				}
			}
			if moved != len(changes)/2 || res.Applied != moved {
				t.Errorf("batch failed mid-way: %d of %d moved, Applied=%d, want %d", moved, len(changes), res.Applied, len(changes)/2)
			}
			return err
		}},
		// The arrival in the destination shard fails after the departure
		// succeeded: the mover is put back where it was.
		{name: "CrossShardArrival", arm: &far, run: func(_ *testing.T, x walFailureIndex, _ map[uint64]Point) error { return x.Update(1, far) }},
	}
	for _, fe := range walFailureFrontEnds[:3] {
		for _, r := range rows {
			if r.arm != nil && fe.name != "ShardedInShard" {
				continue // one tree: no shard to single out
			}
			t.Run(fe.name+"/"+r.name, func(t *testing.T) {
				opts := durableOpts(t.TempDir(), DurabilityBatch)
				x, err := fe.open(opts)
				if err != nil {
					t.Fatal(err)
				}
				want := applyFailureObjects(t, x)
				failNextMutation(x, r.arm)
				if err := r.run(t, x, want); !errors.Is(err, errInjected) {
					t.Fatalf("%s over a failing tree returned %v, want the injected error", r.name, err)
				}
				expectState(t, x, want)
				if err := x.Close(); err != nil {
					t.Fatal(err)
				}
				rec, err := fe.recover(opts)
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				defer rec.Close()
				expectState(t, rec, want)
			})
		}
	}
}

// settleMerges drains every stack's delta tier with its background merger
// idle. Writes that trip the size threshold leave the merger a kick, or a
// pass already waiting on mergeMu, which would otherwise drain the next
// writes on the merger's own time. Halting waits out the pass in flight,
// and a fresh merger with no kick pending takes over after the drain.
func settleMerges(t *testing.T, x walFailureIndex) {
	t.Helper()
	for _, s := range indexOf(x).shards {
		if s.merge != nil {
			s.merge.halt()
			s.merge = nil
		}
		if err := s.drainMemtable(); err != nil {
			t.Fatal(err)
		}
		s.ensureMemtable(Memtable{Enabled: true})
	}
}

// TestMergeFailureReachesTheWrite: a merge-down that fails inline — on
// Index, which has no goroutine to hand it to — fails the write that
// tripped it, single or batched, and every write after it; none of them is
// taken back. Behind a background merger the same write returns nil. On
// every front-end the failure is sticky and CheckInvariants reports it.
func TestMergeFailureReachesTheWrite(t *testing.T) {
	const threshold = 16
	at := func(id uint64, y float64) Point { return Point{X: 0.1 + 0.01*float64(id), Y: y} } // one shard of walFailureShards
	for _, fe := range walFailureFrontEnds[:3] {
		for _, op := range []string{"Update", "UpdateBatch"} {
			t.Run(fe.name+"/"+op, func(t *testing.T) {
				x, err := fe.open(Options{Strategy: GeneralizedBottomUp, PageSize: 256, BufferPages: 8,
					ExpectedObjects: 128, Memtable: Memtable{Enabled: true, MaxObjects: threshold}})
				if err != nil {
					t.Fatal(err)
				}
				defer x.Close() // reports the sticky failure too; the checks below are the test
				// Objects in the tree, so that each one's next move is one new
				// delta, and moves up to one short of the threshold.
				for id := uint64(0); id < threshold+4; id++ {
					if err := x.Insert(id, at(id, 0.2)); err != nil {
						t.Fatal(err)
					}
				}
				settleMerges(t, x)
				for id := uint64(0); id < threshold-1; id++ {
					if err := x.Update(id, at(id, 0.3)); err != nil {
						t.Fatal(err)
					}
				}
				failNextMutation(x, nil)
				check := func(what string, err error) {
					t.Helper()
					if inline := fe.name == "Index"; inline != errors.Is(err, errInjected) || !inline && err != nil {
						t.Fatalf("%s returned %v; inline merge-down: %v (its failure is the write's, a background one's is not)", what, err, inline)
					}
				}
				tripped := at(threshold, 0.3)
				if op == "Update" {
					check(op, x.Update(threshold, tripped))
				} else {
					res, err := x.UpdateBatch([]Change{{ID: threshold, To: tripped}, {ID: threshold + 1, To: at(threshold+1, 0.3)}})
					check(op, err)
					if res.Applied != 2 || res.Absorbed != 2 {
						t.Errorf("the batch that tripped the merge reports %+v, want 2 applied and absorbed", res)
					}
				}
				// The background merger fails on its own time.
				for deadline := time.Now().Add(10 * time.Second); err == nil && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					err = x.CheckInvariants()
				}
				if !errors.Is(err, errInjected) {
					t.Fatalf("CheckInvariants after a failed merge-down: %v, want the sticky injected error", err)
				}
				check("a later Update", x.Update(0, at(0, 0.35)))
				_, err = x.UpdateBatch([]Change{{ID: 1, To: at(1, 0.35)}})
				check("a later UpdateBatch", err)
				for id, want := range map[uint64]Point{threshold: tripped, 0: at(0, 0.35), 1: at(1, 0.35)} {
					if p, _ := x.Location(id); p != want {
						t.Errorf("object %d is at %v, want %v: a write over a failed merge is acknowledged, not undone", id, p, want)
					}
				}
			})
		}
	}
}
