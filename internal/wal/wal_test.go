package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"burtree/internal/vfs"
	"burtree/internal/vfs/vfstest"
)

func appendN(t *testing.T, l *Log, n int, base uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := base + uint64(i)
		if _, err := l.Append(TypeBatch, []Op{{ID: id, X: float64(i), Y: float64(i) + 0.5}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TypeInsert, []Op{{ID: 7, X: 0.25, Y: 0.75}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TypeBatch, []Op{{ID: 7, X: 0.5, Y: 0.5}, {ID: 9, X: 0.1, Y: 0.9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(TypeDelete, []Op{{ID: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st, err := ReadDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Damaged {
		t.Fatal("clean log reported damaged")
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Type != TypeInsert || recs[0].Ops[0].ID != 7 || recs[0].Ops[0].X != 0.25 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].Type != TypeBatch || len(recs[1].Ops) != 2 || recs[1].Ops[1].Y != 0.9 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	if recs[2].Type != TypeDelete || recs[2].Ops[0].ID != 9 {
		t.Fatalf("record 2 = %+v", recs[2])
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}

	// The afterSeq filter skips the covered prefix.
	recs, _, err = ReadDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("afterSeq=2: got %+v", recs)
	}
}

func TestTornTailTruncatedOnReadAndOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(vfs.OS, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record in half.
	if err := os.WriteFile(segs[0].path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, st, err := ReadDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Damaged || len(recs) != 4 {
		t.Fatalf("torn tail: %d records, damaged=%v", len(recs), st.Damaged)
	}

	// Re-opening truncates the torn bytes and appends cleanly after them.
	l2, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastSeq(); got != 4 {
		t.Fatalf("LastSeq after torn open = %d, want 4", got)
	}
	appendN(t, l2, 1, 200)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st, err = ReadDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Damaged || len(recs) != 5 {
		t.Fatalf("after repair: %d records, damaged=%v", len(recs), st.Damaged)
	}
	if recs[4].Seq != 5 || recs[4].Ops[0].ID != 200 {
		t.Fatalf("appended record = %+v", recs[4])
	}
}

func TestCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 6, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segments(vfs.OS, dir)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file (inside record ~3).
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, st, err := ReadDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Damaged {
		t.Fatal("corrupt middle not reported damaged")
	}
	if len(recs) >= 6 {
		t.Fatalf("replayed %d records across corruption", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: non-prefix replay", i, r.Seq)
		}
	}
}

func TestRotationAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEach, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 40, 0)
	segs, _ := segments(vfs.OS, dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	recs, _, err := ReadDir(dir, 0)
	if err != nil || len(recs) != 40 {
		t.Fatalf("read across segments: %d records, %v", len(recs), err)
	}

	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	recs, st, err := ReadDir(dir, 30)
	if err != nil || st.Damaged {
		t.Fatalf("read after truncate: %v damaged=%v", err, st.Damaged)
	}
	if len(recs) != 10 || recs[0].Seq != 31 {
		t.Fatalf("after truncate: %d records, first seq %v", len(recs), recs[0].Seq)
	}
	// Appends continue with increasing sequences.
	appendN(t, l, 3, 500)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err = ReadDir(dir, 30)
	if err != nil || len(recs) != 13 {
		t.Fatalf("append after truncate: %d records, %v", len(recs), err)
	}
	if recs[12].Seq != 43 {
		t.Fatalf("last seq = %d, want 43", recs[12].Seq)
	}
}

func TestStartAfterFloorsSequences(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEach, StartAfter: 77})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(TypeInsert, []Op{{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 78 {
		t.Fatalf("first seq = %d, want 78", seq)
	}
	l.Close()
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	var fail atomic.Value
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(g*per + i)
				if _, err := l.Append(TypeBatch, []Op{{ID: id, X: 1, Y: 2}}); err != nil {
					fail.Store(fmt.Errorf("append: %w", err))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if v := fail.Load(); v != nil {
		t.Fatal(v)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st, err := ReadDir(dir, 0)
	if err != nil || st.Damaged {
		t.Fatalf("read: %v damaged=%v", err, st.Damaged)
	}
	if len(recs) != goroutines*per {
		t.Fatalf("got %d records, want %d", len(recs), goroutines*per)
	}
	seen := make(map[uint64]bool)
	last := uint64(0)
	for _, r := range recs {
		if r.Seq <= last {
			t.Fatalf("sequence regression at %d", r.Seq)
		}
		last = r.Seq
		if seen[r.Ops[0].ID] {
			t.Fatalf("duplicate op id %d", r.Ops[0].ID)
		}
		seen[r.Ops[0].ID] = true
	}
}

// Group commit is worth its code only if concurrent committers share
// syncs: with a sync slow enough to count, G goroutines x k Appends
// under SyncGroup must finish in a small fraction of G*k sync times — a
// round covers every record appended before it — while SyncEach, which
// syncs each record under the append latch, cannot finish in less.
func TestGroupCommitSharesSyncs(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps out 32 slow syncs; run without -short")
	}
	const (
		goroutines, per = 16, 2
		devSync         = 20 * time.Millisecond
		serial          = goroutines * per * devSync
	)
	run := func(policy SyncPolicy) time.Duration {
		t.Helper()
		l, err := Open(t.TempDir(), Options{Sync: policy, FS: vfstest.SlowSync(devSync)})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var wg sync.WaitGroup
		var fail atomic.Value
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := l.Append(TypeBatch, []Op{{ID: uint64(g*per + i), X: 1, Y: 2}}); err != nil {
						fail.Store(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if v := fail.Load(); v != nil {
			t.Fatalf("append: %v", v)
		}
		return elapsed
	}
	// At most two rounds per record a goroutine appends (the round in
	// flight when it arrived, then the one that covers it): ~4 syncs
	// here against 32, so a third of the serial time is a wide margin.
	group, each := run(SyncGroup), run(SyncEach)
	t.Logf("%d appends, %v per sync: SyncGroup %v, SyncEach %v", goroutines*per, devSync, group, each)
	if group > serial/3 {
		t.Fatalf("SyncGroup took %v, want under %v (a third of %d syncs): committers are not sharing syncs",
			group, serial/3, goroutines*per)
	}
	if each < serial {
		t.Fatalf("SyncEach took %v, under %d syncs (%v): some append returned without its own sync",
			each, goroutines*per, serial)
	}
}

func TestExternalNextSeqMergesAcrossLogs(t *testing.T) {
	var ctr atomic.Uint64
	next := func() uint64 { return ctr.Add(1) }
	dirA, dirB := t.TempDir(), t.TempDir()
	la, err := Open(dirA, Options{Sync: SyncEach, NextSeq: next})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Open(dirB, Options{Sync: SyncEach, NextSeq: next})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		target := la
		if i%3 == 0 {
			target = lb
		}
		if _, err := target.Append(TypeBatch, []Op{{ID: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	la.Close()
	lb.Close()
	ra, _, err := ReadDir(dirA, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := ReadDir(dirB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra)+len(rb) != 10 {
		t.Fatalf("records split %d+%d, want 10", len(ra), len(rb))
	}
	// Merged by sequence, the two streams interleave without collision.
	seen := make(map[uint64]bool)
	for _, r := range append(ra, rb...) {
		if seen[r.Seq] {
			t.Fatalf("sequence %d appears in both logs", r.Seq)
		}
		seen[r.Seq] = true
	}
	for s := uint64(1); s <= 10; s++ {
		if !seen[s] {
			t.Fatalf("sequence %d missing", s)
		}
	}
}

func TestOpenEmptyDirAndHeaderOnlySegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Header-only segment: reopen and append.
	l2, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l2, 1, 0)
	l2.Close()
	recs, _, err := ReadDir(dir, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("got %d records, %v", len(recs), err)
	}

	// A zero-byte segment (crash during creation) is dropped on open.
	empty := filepath.Join(dir, "wal-00000099.seg")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l3, 1, 5)
	l3.Close()
	recs, st, err := ReadDir(dir, 0)
	if err != nil || st.Damaged {
		t.Fatalf("read: %v damaged=%v", err, st.Damaged)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

func TestReadDirMissingDir(t *testing.T) {
	recs, st, err := ReadDir(filepath.Join(t.TempDir(), "nope"), 0)
	if err != nil || len(recs) != 0 || st.Damaged {
		t.Fatalf("missing dir: %v %v %v", recs, st, err)
	}
}

func TestEncodeDecodeRecordFraming(t *testing.T) {
	ops := []Op{{ID: 42, X: -1.5, Y: 3.25}, {ID: 0, X: 0, Y: 0}}
	buf := encodeRecord(nil, 9, TypeBatch, ops)
	rec, next, ok := decodeRecord(buf, 0)
	if !ok || next != int64(len(buf)) {
		t.Fatalf("decode failed: ok=%v next=%d len=%d", ok, next, len(buf))
	}
	if rec.Seq != 9 || rec.Type != TypeBatch || len(rec.Ops) != 2 {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.Ops[0] != ops[0] || rec.Ops[1] != ops[1] {
		t.Fatalf("ops = %+v", rec.Ops)
	}
	// Every single-byte corruption is caught.
	for i := range buf {
		c := bytes.Clone(buf)
		c[i] ^= 0x01
		if rec2, _, ok := decodeRecord(c, 0); ok {
			// A corrupted length that still frames a valid record is
			// impossible: the checksum covers seq, type, count and ops.
			t.Fatalf("corruption at byte %d decoded as %+v", i, rec2)
		}
	}
}

// AppendAsync under group commit must return without waiting for the
// device sync, while the background leader still advances the durable
// horizon over everything appended.
func TestAppendAsyncGroupDoesNotBlock(t *testing.T) {
	dir := t.TempDir()
	const devSync = 50 * time.Millisecond
	l, err := Open(dir, Options{Sync: SyncGroup, FS: vfstest.SlowSync(devSync)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := l.AppendAsync(TypeBatch, []Op{{ID: uint64(i), X: 1, Y: 2}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// 20 synchronous appends would cost >= 20 device syncs (1s); async
	// acks must not stack them. A generous bound still proves the point.
	if elapsed > 5*devSync {
		t.Fatalf("%d async appends took %v (device sync %v): acks are waiting for syncs", n, elapsed, devSync)
	}
	// The background leader must cover every appended byte without any
	// caller blocking on it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.mu.Lock()
		appended := l.appended
		l.mu.Unlock()
		l.gc.mu.Lock()
		synced := l.gc.syncedTo
		l.gc.mu.Unlock()
		if synced >= appended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("durable horizon stuck at %d of %d appended bytes", synced, appended)
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st, err := ReadDir(dir, 0)
	if err != nil || st.Damaged {
		t.Fatalf("read: %v damaged=%v", err, st.Damaged)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
}

// Under SyncEach, AppendAsync keeps the per-record durability contract:
// the record is synced before the call returns, identical to Append.
func TestAppendAsyncSyncEachIsSynchronous(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.AppendAsync(TypeBatch, []Op{{ID: uint64(i), X: 1, Y: 2}}); err != nil {
			t.Fatal(err)
		}
		l.mu.Lock()
		appended := l.appended
		l.mu.Unlock()
		l.gc.mu.Lock()
		synced := l.gc.syncedTo
		l.gc.mu.Unlock()
		if synced < appended {
			t.Fatalf("after append %d: synced %d < appended %d", i, synced, appended)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// Synchronous waiters must not be starved by a stream of asynchronous
// appends: Append called concurrently with AppendAsync traffic returns
// once its own record is covered.
func TestAppendAsyncMixedWithSyncWaiters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var asyncErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.AppendAsync(TypeBatch, []Op{{ID: uint64(1000 + i), X: 1, Y: 2}}); err != nil {
				asyncErr.Store(err)
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		if _, err := l.Append(TypeBatch, []Op{{ID: uint64(i), X: 3, Y: 4}}); err != nil {
			t.Fatalf("sync append %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if v := asyncErr.Load(); v != nil {
		t.Fatal(v)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, st, err := ReadDir(dir, 0); err != nil || st.Damaged {
		t.Fatalf("read: %v damaged=%v", err, st.Damaged)
	}
}
