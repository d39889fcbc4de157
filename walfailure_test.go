package burtree

import (
	"errors"
	"reflect"
	"testing"

	"burtree/internal/wal"
)

// This file is the failure matrix of the mutation pipeline: every
// front-end × tier × operation with the log made to fail. An operation
// whose durable append fails must leave no acked-but-unlogged state in
// the trees, the object tables or the memtable delta tiers — recovery
// would silently disagree with what the index still serves — so each
// row asserts that the call errors, that the queryable state is the
// pre-call state, that the invariants hold, and that recovering the
// directory yields that same state.

// walFailureIndex is the surface the matrix needs from every front-end.
type walFailureIndex interface {
	Insert(id uint64, p Point) error
	Update(id uint64, p Point) error
	UpdateBatch(changes []Change) (BatchResult, error)
	Delete(id uint64) error
	Len() int
	Location(id uint64) (Point, bool)
	SearchFunc(q Rect, visit func(uint64, Point) bool) error
	CheckInvariants() error
	Close() error
}

// walFailureFrontEnd is one front-end column of the matrix. far says
// whether the rows' targets lie in another shard than the objects they
// move (for the single-tree front-ends the distinction is moot).
type walFailureFrontEnd struct {
	name    string
	far     bool
	open    func(Options) (walFailureIndex, error)
	recover func(Options) (walFailureIndex, error)
}

// Four uniform ranges, the quadrants, so that (0.1,0.1)…(0.4,0.4) share
// a shard and (0.9,0.9) lies in another.
var walFailureShards = ShardOptions{Shards: 4}

var walFailureFrontEnds = []walFailureFrontEnd{
	{name: "Index",
		open:    func(o Options) (walFailureIndex, error) { return Open(o) },
		recover: func(o Options) (walFailureIndex, error) { return Recover(o) }},
	{name: "ConcurrentIndex",
		open:    func(o Options) (walFailureIndex, error) { return OpenConcurrent(o) },
		recover: func(o Options) (walFailureIndex, error) { return RecoverConcurrent(o) }},
	{name: "ShardedInShard",
		open:    func(o Options) (walFailureIndex, error) { return OpenSharded(o, walFailureShards) },
		recover: func(o Options) (walFailureIndex, error) { return RecoverSharded(o, walFailureShards) }},
	{name: "ShardedCrossShard", far: true,
		open:    func(o Options) (walFailureIndex, error) { return OpenSharded(o, walFailureShards) },
		recover: func(o Options) (walFailureIndex, error) { return RecoverSharded(o, walFailureShards) }},
}

var walFailureTiers = []struct {
	name     string
	memtable bool
}{{"tree", false}, {"memtable", true}}

var walFailureOps = []string{"Insert", "Update", "Delete", "UpdateBatch"}

// indexOf returns the one index under any of the three front-ends, for
// the white-box steps of the failure tests.
func indexOf(idx walFailureIndex) *index {
	switch v := idx.(type) {
	case *Index:
		return v.index
	case *ConcurrentIndex:
		return v.index
	case *ShardedIndex:
		return v.index
	}
	return nil
}

// failLogs force-closes every write-ahead log of the index so the next
// append fails with wal.ErrClosed while the trees keep working — the
// same observable state as a full log device.
func failLogs(t *testing.T, idx walFailureIndex) {
	t.Helper()
	logs := indexOf(idx).wals
	if len(logs) == 0 {
		t.Fatalf("%T is not durable", idx)
	}
	for _, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// expectState asserts the queryable state: exactly the given objects,
// each found at its position by Location and by search, with the
// structural invariants intact.
func expectState(t *testing.T, idx walFailureIndex, want map[uint64]Point) {
	t.Helper()
	if got := idx.Len(); got != len(want) {
		t.Fatalf("Len() = %d, want %d", got, len(want))
	}
	if got := objectsOf(t, idx); !reflect.DeepEqual(got, want) {
		t.Fatalf("search sees %v, want %v", got, want)
	}
	for id, p := range want {
		if lp, ok := idx.Location(id); !ok || lp != p {
			t.Fatalf("object %d: Location sees %v (present %v), want %v", id, lp, ok, p)
		}
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// runWALFailureRow is one cell of the matrix.
func runWALFailureRow(t *testing.T, fe walFailureFrontEnd, memtable bool, op string) {
	opts := durableOpts(t.TempDir(), DurabilityBatch)
	opts.Memtable = Memtable{Enabled: memtable}
	x, err := fe.open(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := map[uint64]Point{1: {X: 0.1, Y: 0.1}, 2: {X: 0.2, Y: 0.3}}
	for id, p := range before {
		if err := x.Insert(id, p); err != nil {
			t.Fatal(err)
		}
	}
	failLogs(t, x)

	target := Point{X: 0.4, Y: 0.4}
	if fe.far {
		target = Point{X: 0.9, Y: 0.9}
	}
	switch op {
	case "Insert":
		err = x.Insert(3, target)
	case "Update":
		err = x.Update(1, target)
	case "Delete":
		err = x.Delete(1)
	case "UpdateBatch":
		// One change to the target, one that stays beside its start.
		var res BatchResult
		res, err = x.UpdateBatch([]Change{{ID: 1, To: target}, {ID: 2, To: Point{X: 0.35, Y: 0.15}}})
		if res.Applied != 0 || res.Absorbed != 0 || res.CrossShard != 0 {
			t.Errorf("failed batch reports Applied=%d Absorbed=%d CrossShard=%d, want 0/0/0", res.Applied, res.Absorbed, res.CrossShard)
		}
	}
	if !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("%s with failed WAL returned %v, want an error wrapping wal.ErrClosed", op, err)
	}
	expectState(t, x, before)

	_ = x.Close() // closes the failed logs a second time; the state checks are the test
	r, err := fe.recover(opts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer r.Close()
	expectState(t, r, before)
}

// TestWALFailureMatrix runs every cell: front-end {Index,
// ConcurrentIndex, ShardedIndex in-shard, ShardedIndex cross-shard} ×
// tier {tree, memtable} × operation.
func TestWALFailureMatrix(t *testing.T) {
	for _, fe := range walFailureFrontEnds {
		for _, tier := range walFailureTiers {
			for _, op := range walFailureOps {
				t.Run(fe.name+"/"+tier.name+"/"+op, func(t *testing.T) {
					runWALFailureRow(t, fe, tier.memtable, op)
				})
			}
		}
	}
}

// The names below are the ones these rows carried as hand-written legs;
// they stay as selections of the same table, so a -run filter or a
// floor list that names an old leg still runs its row.

func singleTreeRows(t *testing.T, op string) {
	for _, fe := range walFailureFrontEnds[:2] {
		for _, tier := range walFailureTiers {
			name := fe.name
			if tier.memtable {
				name += "Memtable"
			}
			t.Run(name, func(t *testing.T) { runWALFailureRow(t, fe, tier.memtable, op) })
		}
	}
}

func TestIndexWALFailureRollsBackInsert(t *testing.T) { singleTreeRows(t, "Insert") }
func TestIndexWALFailureRollsBackUpdate(t *testing.T) { singleTreeRows(t, "Update") }
func TestIndexWALFailureRollsBackDelete(t *testing.T) { singleTreeRows(t, "Delete") }
func TestIndexWALFailureRollsBackBatch(t *testing.T)  { singleTreeRows(t, "UpdateBatch") }

func TestWALFailureRollsBackInsert(t *testing.T) {
	runWALFailureRow(t, walFailureFrontEnds[2], false, "Insert")
}
func TestWALFailureRollsBackUpdate(t *testing.T) {
	runWALFailureRow(t, walFailureFrontEnds[2], false, "Update")
}
func TestWALFailureRollsBackDelete(t *testing.T) {
	runWALFailureRow(t, walFailureFrontEnds[2], false, "Delete")
}
func TestWALFailureRollsBackCrossShardUpdate(t *testing.T) {
	runWALFailureRow(t, walFailureFrontEnds[3], false, "Update")
}
