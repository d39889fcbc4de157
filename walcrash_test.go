package burtree

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// The crash-injection harness: a deterministic operation stream is
// applied to a durable index, then the "crash" is injected — the log is
// truncated at arbitrary byte offsets, or the whole process is
// SIGKILLed — and recovery is checked against a brute-force oracle:
// the recovered object table must equal the oracle state after exactly
// the durable prefix of operations, and every acknowledged operation
// must be inside that prefix.

// crashOpts returns the durable index configuration shared by the
// parent and child halves of the harness (they must agree bit for bit).
func crashOpts(stateDir string) Options {
	return Options{
		Strategy:        GeneralizedBottomUp,
		PageSize:        256,
		BufferPages:     8,
		ExpectedObjects: 256,
		Durability:      Durability{Mode: DurabilityBatch, Dir: stateDir},
	}
}

// memtableCrashOpts is crashOpts with the delta tier enabled at a
// budget small enough that merge-downs trip every few operations, so
// crashes land mid-merge and recovery must rebuild state whose tree
// half and memtable half were torn arbitrarily.
func memtableCrashOpts(stateDir string) Options {
	o := crashOpts(stateDir)
	o.Memtable = Memtable{Enabled: true, MaxObjects: 8}
	return o
}

// crashStream generates the deterministic op stream: every op maps to
// exactly one log record, and the stream only issues valid operations
// (inserts of fresh ids, updates/deletes/batches over live ids).
type crashStream struct {
	rng    *rand.Rand
	oracle map[uint64]Point
	ids    []uint64 // live ids in insertion order (deterministic picks)
	nextID uint64
	op     int
}

func newCrashStream() *crashStream {
	return &crashStream{rng: rand.New(rand.NewSource(42)), oracle: make(map[uint64]Point)}
}

// apply issues the next operation against a (nil = oracle only) and
// mirrors it into the oracle.
func (s *crashStream) apply(a walFailureIndex) error {
	defer func() { s.op++ }()
	insert := func() error {
		id := s.nextID
		s.nextID++
		p := Point{X: s.rng.Float64(), Y: s.rng.Float64()}
		if a != nil {
			if err := a.Insert(id, p); err != nil {
				return err
			}
		}
		s.oracle[id] = p
		s.ids = append(s.ids, id)
		return nil
	}
	if s.op < 24 || len(s.ids) == 0 {
		return insert()
	}
	switch s.rng.Intn(5) {
	case 0:
		return insert()
	case 1: // delete a live id
		i := s.rng.Intn(len(s.ids))
		id := s.ids[i]
		if a != nil {
			if err := a.Delete(id); err != nil {
				return err
			}
		}
		delete(s.oracle, id)
		s.ids = append(s.ids[:i], s.ids[i+1:]...)
		return nil
	case 2: // single update
		id := s.ids[s.rng.Intn(len(s.ids))]
		p := Point{X: s.rng.Float64(), Y: s.rng.Float64()}
		if a != nil {
			if u, ok := a.(interface{ Update(uint64, Point) error }); ok {
				if err := u.Update(id, p); err != nil {
					return err
				}
			}
		}
		s.oracle[id] = p
		return nil
	default: // batch of moves (possibly with repeats, exercising coalescing)
		n := s.rng.Intn(6) + 2
		batch := make([]Change, 0, n)
		for j := 0; j < n; j++ {
			id := s.ids[s.rng.Intn(len(s.ids))]
			p := Point{X: s.rng.Float64(), Y: s.rng.Float64()}
			batch = append(batch, Change{ID: id, To: p})
		}
		if a != nil {
			if _, err := a.UpdateBatch(batch); err != nil {
				return err
			}
		}
		for _, c := range batch {
			s.oracle[c.ID] = c.To
		}
		return nil
	}
}

// fingerprint canonicalizes an object table for exact comparison.
func fingerprint(objects map[uint64]Point) string {
	ids := make([]uint64, 0, len(objects))
	for id := range objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for _, id := range ids {
		p := objects[id]
		fmt.Fprintf(&b, "%d:%x:%x;", id, math.Float64bits(p.X), math.Float64bits(p.Y))
	}
	return b.String()
}

// searcher is any front-end that can stream its contents.
type searcher interface {
	SearchFunc(Rect, func(uint64, Point) bool) error
}

func recoveredObjects(t *testing.T, idx searcher) map[uint64]Point {
	t.Helper()
	out := make(map[uint64]Point)
	err := idx.SearchFunc(NewRect(-10, -10, 10, 10), func(id uint64, p Point) bool {
		out[id] = p
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func recoveredFingerprint(t *testing.T, idx searcher) string {
	t.Helper()
	return fingerprint(recoveredObjects(t, idx))
}

// checkOldOrNew verifies a recovered table against the oracle state
// before (a) and after (b) the single op in flight at the crash: ids
// the op does not touch must survive exactly, ids it touches may hold
// the old or the new value (a batch is not atomic, so per-shard slices
// of the in-flight batch may be independently durable).
func checkOldOrNew(rec, a, b map[uint64]Point) error {
	for id, p := range rec {
		pa, inA := a[id]
		pb, inB := b[id]
		if (inA && p == pa) || (inB && p == pb) {
			continue
		}
		return fmt.Errorf("object %d recovered at %v, in neither oracle state", id, p)
	}
	for id, pa := range a {
		pb, inB := b[id]
		got, ok := rec[id]
		if inB && pa == pb {
			// Untouched by the in-flight op: acked state must survive.
			if !ok || got != pa {
				return fmt.Errorf("acked object %d lost or moved (got %v,%v want %v)", id, got, ok, pa)
			}
			continue
		}
		if ok && got != pa && (!inB || got != pb) {
			return fmt.Errorf("object %d at %v, want old %v or new state", id, got, pa)
		}
	}
	return nil
}

// TestCrashTruncationSweep runs the deterministic stream against a
// per-batch durable index, then for byte offsets across the log file
// truncates a copy at that offset and recovers: the result must equal
// the oracle state after exactly the operations whose records fit
// inside the truncated length — recovery restores the acked prefix,
// nothing more, nothing less. Record extents are measured externally
// (file size after each synced op), so the check does not trust the
// log reader's own framing.
//
// The memtable leg runs the identical sweep with the delta tier
// enabled on both halves: writes are acked out of the memtable (merges
// never touch the log), and recovery replays the durable tail back
// into a fresh memtable — truncating at any byte must still restore
// exactly the acked prefix, even when the original process crashed
// with deltas buffered or a merge mid-flight.
func TestCrashTruncationSweep(t *testing.T) {
	t.Run("plain", func(t *testing.T) { runTruncationSweep(t, crashOpts) })
	t.Run("memtable", func(t *testing.T) { runTruncationSweep(t, memtableCrashOpts) })
}

func runTruncationSweep(t *testing.T, mkOpts func(string) Options) {
	base := t.TempDir()
	stateDir := filepath.Join(base, "state")
	idx, err := Open(mkOpts(stateDir))
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(logDir(stateDir, 0), "wal-00000001.seg")
	stat, err := os.Stat(segPath)
	if err != nil {
		t.Fatalf("expected active segment at %s: %v", segPath, err)
	}
	s := newCrashStream()
	sizes := []int64{stat.Size()} // sizes[k] = file size after k ops
	fps := []string{fingerprint(s.oracle)}
	const ops = 60
	for i := 0; i < ops; i++ {
		if err := s.apply(idx); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		stat, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, stat.Size())
		fps = append(fps, fingerprint(s.oracle))
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != sizes[ops] {
		t.Fatalf("log is %d bytes, expected %d", len(data), sizes[ops])
	}

	// Offsets: every record boundary +/- 1, plus a stride across the
	// whole file (every byte when not -short).
	offsets := make(map[int64]bool)
	for _, sz := range sizes {
		for _, d := range []int64{-1, 0, 1} {
			if o := sz + d; o >= 0 && o <= int64(len(data)) {
				offsets[o] = true
			}
		}
	}
	stride := int64(1)
	if testing.Short() {
		stride = 53
	}
	for o := int64(0); o <= int64(len(data)); o += stride {
		offsets[o] = true
	}

	workRoot := filepath.Join(base, "work")
	n := 0
	for off := range offsets {
		n++
		dir := filepath.Join(workRoot, fmt.Sprintf("t%d", n))
		if err := os.MkdirAll(logDir(dir, 0), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(logDir(dir, 0), "wal-00000001.seg"), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(mkOpts(dir))
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		// k = number of ops whose records fit entirely within off.
		k := sort.Search(len(sizes), func(i int) bool { return sizes[i] > off }) - 1
		if k < 0 {
			k = 0
		}
		if got := recoveredFingerprint(t, rec); got != fps[k] {
			t.Fatalf("offset %d: recovered state != oracle after %d ops (%d objects vs %d)",
				off, k, rec.Len(), strings.Count(fps[k], ";"))
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("offset %d: invariants: %v", off, err)
		}
		rec.Close()
		os.RemoveAll(dir)
	}
}

// TestCrashChildProcess is the re-executed child half of the kill test:
// it applies the deterministic stream to a per-batch durable index,
// acknowledging each completed op in an acks file, until it is killed.
func TestCrashChildProcess(t *testing.T) {
	dir := os.Getenv("BURTREE_CRASH_DIR")
	if dir == "" {
		t.Skip("crash child; driven by TestCrashKillRecovers")
	}
	stateDir := filepath.Join(dir, "state")
	var a walFailureIndex
	var err error
	switch os.Getenv("BURTREE_CRASH_KIND") {
	case "sharded":
		a, err = RecoverSharded(crashOpts(stateDir), ShardOptions{Shards: 4})
	case "memtable":
		a, err = Recover(memtableCrashOpts(stateDir))
	case "sharded-memtable":
		a, err = RecoverSharded(memtableCrashOpts(stateDir), ShardOptions{Shards: 4})
	default:
		a, err = Recover(crashOpts(stateDir))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "child recover:", err)
		os.Exit(3)
	}
	acks, err := os.OpenFile(filepath.Join(dir, "acks"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child acks:", err)
		os.Exit(3)
	}
	s := newCrashStream()
	for i := 0; i < 200_000; i++ {
		if err := s.apply(a); err != nil {
			fmt.Fprintf(os.Stderr, "child op %d: %v\n", i, err)
			os.Exit(3)
		}
		fmt.Fprintf(acks, "%d\n", i+1)
	}
}

// TestCrashKillRecovers SIGKILLs a child process mid-stream and
// verifies that recovery restores exactly the acked prefix: every
// acknowledged op survives, and at most the single op in flight at
// kill time may additionally be present. The memtable kinds run the
// child with the delta tier enabled at a tiny budget, so the kill
// routinely lands with deltas buffered in memory or a merge-down
// mid-flight — an acked op's tree work may not have happened yet, but
// its log record has, and that is all recovery needs.
func TestCrashKillRecovers(t *testing.T) {
	for _, kind := range []string{"index", "sharded", "memtable", "sharded-memtable"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChildProcess$", "-test.v")
			cmd.Env = append(os.Environ(), "BURTREE_CRASH_DIR="+dir, "BURTREE_CRASH_KIND="+kind)
			var out strings.Builder
			cmd.Stdout, cmd.Stderr = &out, &out
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(80 * time.Millisecond) // let it ack a few dozen ops
			cmd.Process.Kill()
			err := cmd.Wait()
			if err == nil {
				t.Fatalf("child was not killed; output:\n%s", out.String())
			}
			if code := cmd.ProcessState.ExitCode(); code == 3 {
				t.Fatalf("child failed before the kill:\n%s", out.String())
			}

			// Count acknowledged ops.
			acked := 0
			if f, err := os.Open(filepath.Join(dir, "acks")); err == nil {
				sc := bufio.NewScanner(f)
				for sc.Scan() {
					if line := strings.TrimSpace(sc.Text()); line != "" {
						fmt.Sscanf(line, "%d", &acked)
					}
				}
				f.Close()
			}
			if acked == 0 {
				t.Fatalf("child acked no ops in 80ms; output:\n%s", out.String())
			}

			// Oracle states around the durable horizon: after the acked
			// prefix, and after the single op in flight at kill time.
			s := newCrashStream()
			for i := 0; i < acked; i++ {
				if err := s.apply(nil); err != nil {
					t.Fatal(err)
				}
			}
			before := make(map[uint64]Point, len(s.oracle))
			for id, p := range s.oracle {
				before[id] = p
			}
			if err := s.apply(nil); err != nil {
				t.Fatal(err)
			}
			after := s.oracle

			stateDir := filepath.Join(dir, "state")
			mkOpts := crashOpts
			if strings.Contains(kind, "memtable") {
				mkOpts = memtableCrashOpts
			}
			var rec map[uint64]Point
			if strings.HasPrefix(kind, "sharded") {
				x, err := RecoverSharded(mkOpts(stateDir), ShardOptions{Shards: 4})
				if err != nil {
					t.Fatalf("recovery after kill: %v", err)
				}
				defer x.Close()
				if err := x.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				rec = recoveredObjects(t, x)
			} else {
				x, err := Recover(mkOpts(stateDir))
				if err != nil {
					t.Fatalf("recovery after kill: %v", err)
				}
				defer x.Close()
				if err := x.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				rec = recoveredObjects(t, x)
				// A single-log front-end writes one record per op, so the
				// recovered state is exactly one of the two oracle states.
				if got := fingerprint(rec); got != fingerprint(before) && got != fingerprint(after) {
					t.Fatalf("recovered state matches neither oracle[%d] nor oracle[%d]", acked, acked+1)
				}
			}
			// Every acked op is durable (per-batch fsync before return);
			// the op in flight at the kill may be partially durable per
			// shard, but per object only old-or-new is legal.
			if err := checkOldOrNew(rec, before, after); err != nil {
				t.Fatalf("%s (acked=%d): %v", kind, acked, err)
			}
			t.Logf("%s: killed after %d acked ops; recovery verified", kind, acked)
		})
	}
}

// FuzzWALRecover mutates the log bytes — truncation or a byte flip at
// an arbitrary offset — and requires recovery to either restore a
// state the oracle passed through (the acked prefix: damage truncates
// the log at the first bad record) or fail with the typed ErrRecovery.
// It must never panic and never invent state the stream did not
// produce.
func FuzzWALRecover(f *testing.F) {
	// Template: checkpointed prefix plus a live log tail.
	tmpl := filepath.Join(f.TempDir(), "tmpl")
	idx, err := Open(crashOpts(tmpl))
	if err != nil {
		f.Fatal(err)
	}
	s := newCrashStream()
	const head, tail = 24, 16
	for i := 0; i < head; i++ {
		if err := s.apply(idx); err != nil {
			f.Fatal(err)
		}
	}
	if err := idx.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	okStates := map[string]bool{fingerprint(s.oracle): true}
	for i := 0; i < tail; i++ {
		if err := s.apply(idx); err != nil {
			f.Fatal(err)
		}
		okStates[fingerprint(s.oracle)] = true
	}
	if err := idx.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(logDir(tmpl, 0), "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		f.Fatalf("template segments: %v %v", segs, err)
	}
	logBytes, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	snapBytes, err := os.ReadFile(filepath.Join(tmpl, snapshotFileName))
	if err != nil {
		f.Fatal(err)
	}
	segName := filepath.Base(segs[0])

	// Input: [mode][offset u32 LE][xor value].
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 200, 0, 0, 0, 0})
	f.Add([]byte{1, 100, 0, 0, 0, 0xff})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0})
	f.Add([]byte{1, 9, 0, 0, 0, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		mode := data[0] % 2
		off := int(binary.LittleEndian.Uint32(data[1:5]))
		val := data[5]

		mutated := append([]byte(nil), logBytes...)
		if mode == 0 { // truncate
			if off > len(mutated) {
				off = len(mutated)
			}
			mutated = mutated[:off]
		} else { // flip a byte
			if len(mutated) == 0 {
				return
			}
			off %= len(mutated)
			if val == 0 {
				val = 0xff
			}
			mutated[off] ^= val
		}

		dir := t.TempDir()
		if err := os.MkdirAll(logDir(dir, 0), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(logDir(dir, 0), segName), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), snapBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(crashOpts(dir))
		if err != nil {
			if !errors.Is(err, ErrRecovery) {
				t.Fatalf("recovery failed with untyped error: %v", err)
			}
			return
		}
		defer rec.Close()
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("recovered index invalid: %v", err)
		}
		if got := recoveredFingerprint(t, rec); !okStates[got] {
			t.Fatalf("recovered state (%d objects) matches no oracle prefix — resurrected or invented writes", rec.Len())
		}
	})
}
