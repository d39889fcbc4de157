package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"burtree"
)

type runConfig struct {
	seed    int64
	seconds float64
	scale   float64
	dir     string // holds tmp/ (WAL directories, removed on exit) and the trace files
}

// phase is what one replay of a workload's streams measured, from
// outside the library.
type phase struct {
	setups    []float64 // seconds per Open+BulkInsert
	wall      time.Duration
	marks     [windows + 1]mark          // window boundaries
	lat       [windows][numKinds][]int64 // ns per call, all clients
	issued    [windows]int64             // calls attempted per window
	attempted int64
	failed    int64
	moves     int64 // acknowledged changes: moves, inserts, deletes
	reads     int64 // Search + Nearest calls completed
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	st0, st1  burtree.Stats // before the timer; after the timer and Flush
	cs0, cs1  burtree.ConcurrencyStats
	batch     burtree.BatchResult // summed over UpdateBatch calls
	heapMB    float64
	objects   int
	recover   time.Duration
	replayed  int // log records' moves replayed by recovery

	// Filled by a traced replay only.
	pagesByKind  [numKinds]int64
	depthSamples []int
	checkpoint   time.Duration
	ckSpan       [2]int64 // the checkpoint's start and end on the tracer clock
	walBytes     int64    // log bytes written: before the checkpoint plus at the end
	walSegments  int
	snapBytes    int64
	loads0       []burtree.ShardLoad
	loads1       []burtree.ShardLoad
}

func (ph *phase) calls() float64 { return float64(ph.attempted) }

// windows is how many back-to-back timed windows a replay is cut into.
// The clients meet at a barrier between windows, so each window is a
// small run of its own — its calls and its share of the background work
// — and every timing metric is the median window. One window disturbed
// by the box (a stolen core, a slow fsync burst) then moves nothing; a
// slower library moves all of them.
const windows = 9

// mark is the clock and the process CPU time at a window boundary.
type mark struct {
	t   time.Duration
	cpu time.Duration
}

// samples is how many calls of a kind the phase timed.
func (ph *phase) samples(k opKind) int {
	n := 0
	for w := range ph.lat {
		n += len(ph.lat[w][k])
	}
	return n
}

// medianWindow applies f to every window that has calls and returns the
// median of the values.
func (ph *phase) medianWindow(f func(w int) (float64, bool)) float64 {
	var v []float64
	for w := 0; w < windows; w++ {
		if x, ok := f(w); ok {
			v = append(v, x)
		}
	}
	return median(v)
}

// rate is one window's calls per wall second; false for an empty window.
func (ph *phase) rate(w int) (float64, bool) {
	d := ph.marks[w+1].t - ph.marks[w].t
	return float64(ph.issued[w]) / d.Seconds(), ph.issued[w] > 0 && d > 0
}

// opsPerSec is the median window's calls per wall second.
func (ph *phase) opsPerSec() float64 { return ph.medianWindow(ph.rate) }

// windowRates lists every window's calls per second, for the reader to
// see how much the box moved under the run.
func (ph *phase) windowRates() string {
	var b strings.Builder
	for w := 0; w < windows; w++ {
		if r, ok := ph.rate(w); ok {
			fmt.Fprintf(&b, "%.0f ", r)
		}
	}
	return strings.TrimSpace(b.String())
}

// quantile is the median over windows of a kind's latency quantile, µs.
func (ph *phase) quantile(k opKind, p float64) float64 {
	return ph.medianWindow(func(w int) (float64, bool) {
		return percentile(sortedCopy(ph.lat[w][k]), p) / 1e3, len(ph.lat[w][k]) > 0
	})
}

// clientRun is one client's private record of its replay.
type clientRun struct {
	lat         [numKinds][]int64      // all windows, in order
	cut         [windows][numKinds]int // len(lat[k]) at the end of each window
	issued      [windows]int64
	failed      int64
	moves       int64
	reads       int64
	batch       burtree.BatchResult
	pagesByKind [numKinds]int64
	depth       []int
	firstErr    error
}

func newClientRun(s *stream) *clientRun {
	r := &clientRun{}
	for k := range r.lat {
		r.lat[k] = make([]int64, 0, s.counts[k])
	}
	return r
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func totalPages(s burtree.Stats) int64 { return s.DiskReads + s.DiskWrites }

// scratch makes a fresh directory under the run's tmp root.
func (cfg runConfig) scratch(name string) (string, error) {
	root := filepath.Join(cfg.dir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}

// setup opens the workload's index on fresh state and bulk-loads it.
func setup(w workloadDef, in *input, walDir string) (*target, time.Duration, error) {
	t0 := time.Now()
	t, err := open(w, len(in.ids), walDir)
	if err != nil {
		return nil, 0, err
	}
	if err := t.BulkInsert(in.ids, in.initial, burtree.PackSTR); err != nil {
		return nil, 0, errors.Join(err, t.Close())
	}
	return t, time.Since(t0), nil
}

// execute runs one whole pass of a workload: set-up (setups times, the
// last one kept), the timed replay, Flush, the oracle check, and for the
// recovering workload Close, RecoverSharded and the check again. With a
// tracer the replay also records spans and per-call counters; probe,
// when set, sees the checked index before it is closed.
func execute(w workloadDef, cfg runConfig, in *input, setups int, tr *tracer, probe func(*target) error) (ph *phase, err error) {
	root, err := cfg.scratch(w.name)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(root)) }()

	// Everything the harness itself keeps alive through the phase exists
	// before the heap baseline, so live_heap_mb is the index's share.
	o := newOracle(in)
	runs := make([]*clientRun, len(in.streams))
	for c := range runs {
		runs[c] = newClientRun(&in.streams[c])
	}
	ph = &phase{}
	heapBase := liveHeapMB()

	var t *target
	for k := 0; k < setups; k++ {
		if t != nil {
			if err := t.Close(); err != nil {
				return nil, err
			}
			t = nil
			runtime.GC()
		}
		var d time.Duration
		t, d, err = setup(w, in, filepath.Join(root, fmt.Sprintf("wal-%d", k)))
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, d.Seconds())
	}
	defer func() {
		if t != nil {
			err = errors.Join(err, t.Close())
		}
	}()

	replay(t, w, in, o, runs, tr, ph, cfg)

	if err := t.Flush(); err != nil {
		return nil, err
	}
	ph.st1, ph.cs1 = t.stats()
	runtime.ReadMemStats(&ph.mem1)
	ph.heapMB = liveHeapMB() - heapBase
	ph.objects = t.Len()
	if t.loads != nil {
		ph.loads1 = t.loads()
	}
	if t.walDir != "" {
		b, n, err := walFiles(t.walDir)
		if err != nil {
			return nil, err
		}
		ph.walBytes += b
		ph.walSegments = n
	}
	for _, r := range runs {
		if r.firstErr != nil {
			return nil, fmt.Errorf("%s: call failed: %w", w.name, r.firstErr)
		}
	}
	if err := verify(t, o, cfg.seed); err != nil {
		return nil, fmt.Errorf("%s: oracle check: %w", w.name, err)
	}
	if probe != nil {
		if err := probe(t); err != nil {
			return nil, err
		}
	}

	if w.recover {
		if err := t.Close(); err != nil {
			return nil, err
		}
		old := t
		t = nil
		if tr != nil {
			if fi, err := os.Stat(filepath.Join(old.walDir, "snapshot.burtree")); err == nil {
				ph.snapBytes = fi.Size()
			}
			ph.replayed, err = logMoves(old.walDir)
			if err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		t, err = old.recoverFn()
		if err != nil {
			return nil, fmt.Errorf("%s: recover: %w", w.name, err)
		}
		ph.recover = time.Since(t0)
		if err := verify(t, o, cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: oracle check after recovery: %w", w.name, err)
		}
	}
	return ph, nil
}

// barrier lets the clients meet between windows; the last to arrive
// runs fn before any of them goes on.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await(fn func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting++
	if b.waiting == b.n {
		fn()
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round := b.round; round == b.round; {
		b.cond.Wait()
	}
}

// replay runs the closed loop: one goroutine per client, each issuing
// its next call when the previous one returns, window after window. The
// clock runs through the whole phase, background merge-down, checkpoints
// and the group-commit leader included. A run that is far slower than
// the stream was sized for stops at four times -seconds, so a regression
// cannot run into the driver's time limit; the calls not issued are
// simply not attempted.
func replay(t *target, w workloadDef, in *input, o *oracle, runs []*clientRun, tr *tracer, ph *phase, cfg runConfig) {
	limit := time.Duration(4 * cfg.seconds * float64(time.Second))
	ph.st0, ph.cs0 = t.stats()
	if t.loads != nil {
		ph.loads0 = t.loads()
	}
	runtime.GC()
	runtime.ReadMemStats(&ph.mem0)
	start := time.Now()
	ph.marks[0] = mark{cpu: cpuTime()}
	meet := newBarrier(len(in.streams))

	var wg sync.WaitGroup
	for c := range in.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{t: t, w: w, s: &in.streams[c], o: o, r: runs[c], ph: ph, first: c == 0}
			if tr != nil {
				cl.ln = tr.lanes[c]
			}
			n := len(cl.s.calls)
			for k := 0; k < windows; k++ {
				lo, hi := k*n/windows, (k+1)*n/windows
				if time.Since(start) >= limit {
					hi = lo // out of time: an empty window keeps the bookkeeping whole
				}
				cl.window(k, lo, hi)
				meet.await(func() { ph.marks[k+1] = mark{t: time.Since(start), cpu: cpuTime()} })
			}
		}(c)
	}
	wg.Wait()

	ph.wall = ph.marks[windows].t
	for _, r := range runs {
		lo := [numKinds]int{}
		for k := 0; k < windows; k++ {
			for kind := range r.lat {
				ph.lat[k][kind] = append(ph.lat[k][kind], r.lat[kind][lo[kind]:r.cut[k][kind]]...)
				lo[kind] = r.cut[k][kind]
			}
			ph.issued[k] += r.issued[k]
			ph.attempted += r.issued[k]
		}
		for kind := range r.pagesByKind {
			ph.pagesByKind[kind] += r.pagesByKind[kind]
		}
		ph.failed += r.failed
		ph.moves += r.moves
		ph.reads += r.reads
		ph.depthSamples = append(ph.depthSamples, r.depth...)
		addBatch(&ph.batch, r.batch)
	}
}

func addBatch(a *burtree.BatchResult, b burtree.BatchResult) {
	a.Applied += b.Applied
	a.Coalesced += b.Coalesced
	a.Groups += b.Groups
	a.GroupResolved += b.GroupResolved
	a.Fallback += b.Fallback
	a.CrossShard += b.CrossShard
	a.Absorbed += b.Absorbed
	a.PageIO += b.PageIO
	a.Combined += b.Combined
}

// client is one closed-loop caller.
type client struct {
	t     *target
	w     workloadDef
	s     *stream
	o     *oracle
	r     *clientRun
	ln    *lane // nil when untraced
	ph    *phase
	first bool // client 0 checkpoints and samples the memtable depth
}

// window issues the calls [lo, hi) of the client's stream. In the
// checkpointing workload client 0 calls Checkpoint before its middle
// call, inside the timer.
func (cl *client) window(k, lo, hi int) {
	r, s := cl.r, cl.s
	every := max(len(s.calls)/100, 1)
	for i := lo; i < hi; i++ {
		c := &s.calls[i]
		if cl.first && cl.w.checkpoint && i == len(s.calls)/2 {
			if err := cl.checkpoint(); err != nil && r.firstErr == nil {
				r.firstErr = err
			}
		}
		var id uint64
		var st0, pages0 int64
		if cl.ln != nil {
			st, _ := cl.t.stats()
			if cl.first && cl.w.memtable && i%every == 0 {
				r.depth = append(r.depth, st.Memtable.Entries)
			}
			pages0 = totalPages(st)
			id, st0 = cl.ln.begin()
		}

		t0 := time.Now()
		err := cl.issue(c)
		d := time.Since(t0)

		r.issued[k]++
		if err != nil {
			// A failed call counts as missing every latency limit: it is
			// left out of the percentiles and fails the run's check.
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("%s call %d: %w", kindNames[c.kind], i, err)
			}
		} else {
			r.lat[c.kind] = append(r.lat[c.kind], int64(d))
		}
		if cl.ln != nil {
			cl.ln.end(id, 0, "frontend."+kindNames[c.kind], st0, int64(i), 1)
			st, _ := cl.t.stats()
			r.pagesByKind[c.kind] += totalPages(st) - pages0
		}
	}
	for kind := range r.lat {
		r.cut[k][kind] = len(r.lat[kind])
	}
}

// issue makes one front-end call and, once it is acknowledged, applies
// it to the oracle.
func (cl *client) issue(c *call) error {
	t, o, r := cl.t, cl.o, cl.r
	switch c.kind {
	case opUpdate:
		if cl.w.batch == 0 {
			if err := t.Update(c.id, c.p); err != nil {
				return err
			}
			o.pos[c.id] = c.p
			r.moves++
			return nil
		}
		b := cl.s.batches[c.id]
		res, err := t.UpdateBatch(b)
		if err != nil {
			return err
		}
		for _, ch := range b {
			o.pos[ch.ID] = ch.To
		}
		r.moves += int64(len(b))
		addBatch(&r.batch, res)
	case opInsert:
		if err := t.Insert(c.id, c.p); err != nil {
			return err
		}
		o.pos[c.id], o.live[c.id] = c.p, true
		r.moves++
	case opDelete:
		if err := t.Delete(c.id); err != nil {
			return err
		}
		o.live[c.id] = false
		r.moves++
	case opSearch:
		if _, err := t.Search(c.q); err != nil {
			return err
		}
		r.reads++
	case opNearest:
		if _, err := t.Nearest(c.p, nearestK); err != nil {
			return err
		}
		r.reads++
	}
	return nil
}

// checkpoint is client 0's Checkpoint inside the timer: the other
// client stalls behind its exclusive gate.
func (cl *client) checkpoint() error {
	var id uint64
	var st0 int64
	if cl.ln != nil {
		b, _, err := walFiles(cl.t.walDir)
		if err != nil {
			return err
		}
		cl.ph.walBytes += b
		id, st0 = cl.ln.begin()
	}
	t0 := time.Now()
	err := cl.t.checkpoint()
	cl.ph.checkpoint = time.Since(t0)
	if cl.ln != nil {
		cl.ln.end(id, 0, "persist.checkpoint", st0, -1, 1)
		cl.ph.ckSpan = [2]int64{st0, cl.ln.tr.now()}
	}
	return err
}

// endToEndOf turns an untraced phase into the end-to-end metrics. The
// timings are median windows; the counts are over the whole phase, the
// write-back of pages still dirty at its end included (Flush runs after
// the clock stops), so a workload that fits in cache shows its deferred
// writes rather than none.
func endToEndOf(ph *phase) results {
	r := results{
		"setup_s": median(ph.setups),
		"ops_s":   ph.opsPerSec(),
		"cpu_us_per_op": ph.medianWindow(func(w int) (float64, bool) {
			d := ph.marks[w+1].cpu - ph.marks[w].cpu
			return float64(d.Microseconds()) / float64(ph.issued[w]), ph.issued[w] > 0
		}),
		"allocs_per_op": float64(ph.mem1.Mallocs-ph.mem0.Mallocs) / ph.calls(),
		"pages_per_op":  float64(totalPages(ph.st1)-totalPages(ph.st0)) / ph.calls(),
		"live_heap_mb":  ph.heapMB,
		"space_amp":     float64(ph.st1.Pages) * pageSize / (float64(ph.objects) * 24),
	}
	for _, k := range []opKind{opUpdate, opSearch, opNearest} {
		r[kindNames[k]+"_p50_us"] = ph.quantile(k, 0.50)
	}
	ungatedOf(ph, r)
	return r
}

// ungatedOf adds the caller-visible numbers that are reported with the
// frontend layer because they do not repeat within the driver's cap.
func ungatedOf(ph *phase, r results) {
	r["frontend.update_p99_us"] = ph.quantile(opUpdate, 0.99)
	r["frontend.search_p99_us"] = ph.quantile(opSearch, 0.99)
	r["frontend.nearest_p99_us"] = ph.quantile(opNearest, 0.99)
	r["frontend.recover_s"] = ph.recover.Seconds()
	r["frontend.failed_ops_share"] = ratio(float64(ph.failed), ph.calls())
}

// verify compares the index with the oracle at quiescence: structure,
// every object's position, 200 seeded windows and 50 nearest-neighbour
// distance profiles against brute force.
func verify(t *target, o *oracle, seed int64) error {
	if err := t.CheckInvariants(); err != nil {
		return err
	}
	if got, want := t.Len(), o.liveCount(); got != want {
		return fmt.Errorf("index holds %d objects, oracle %d", got, want)
	}
	for id, live := range o.live {
		p, ok := t.Location(uint64(id))
		if ok != live {
			return fmt.Errorf("object %d: present=%v, oracle live=%v", id, ok, live)
		}
		if live && p != o.pos[id] {
			return fmt.Errorf("object %d at %v, last acknowledged %v", id, p, o.pos[id])
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < 200; i++ {
		x, y := rng.Float64(), rng.Float64()
		q := burtree.NewRect(x, y, x+rng.Float64()*queryMax, y+rng.Float64()*queryMax)
		got, err := t.Search(q)
		if err != nil {
			return err
		}
		var want []uint64
		for id, live := range o.live {
			if p := o.pos[id]; live && p.X >= q.MinX && p.X <= q.MaxX && p.Y >= q.MinY && p.Y <= q.MaxY {
				want = append(want, uint64(id))
			}
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if len(got) != len(want) {
			return fmt.Errorf("window %v: %d results, brute force %d", q, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return fmt.Errorf("window %v: result %d is object %d, brute force %d", q, j, got[j], want[j])
			}
		}
	}
	dists := make([]float64, 0, len(o.live))
	for i := 0; i < 50; i++ {
		p := burtree.Point{X: rng.Float64(), Y: rng.Float64()}
		got, err := t.Nearest(p, nearestK)
		if err != nil {
			return err
		}
		dists = dists[:0]
		for id, live := range o.live {
			if live {
				dists = append(dists, math.Hypot(o.pos[id].X-p.X, o.pos[id].Y-p.Y))
			}
		}
		sort.Float64s(dists)
		want := dists[:min(nearestK, len(dists))]
		if len(got) != len(want) {
			return fmt.Errorf("nearest %v: %d results, brute force %d", p, len(got), len(want))
		}
		for j := range got {
			if math.Abs(got[j].Dist-want[j]) > 1e-12 {
				return fmt.Errorf("nearest %v: neighbour %d at distance %g, brute force %g", p, j, got[j].Dist, want[j])
			}
		}
	}
	return nil
}
