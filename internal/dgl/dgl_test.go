package dgl

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{IX, IX, true}, {IX, S, false}, {IX, X, false},
		{S, S, true}, {S, X, false},
		{X, X, false},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Compatible(c.b, c.a); got != c.want {
			t.Errorf("matrix not symmetric at (%v,%v)", c.a, c.b)
		}
	}
}

func TestAcquireReleaseBasic(t *testing.T) {
	m := NewManager()
	t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
	if err := m.Acquire(t1, 1, S, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, 1, S, 0); err != nil {
		t.Fatal(err) // S-S compatible
	}
	if err := m.Acquire(t3, 1, X, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("X with S holders present: err = %v, want timeout", err)
	}
	m.ReleaseAll(t1)
	m.ReleaseAll(t2)
	if err := m.Acquire(t3, 1, X, time.Second); err != nil {
		t.Fatal(err)
	}
	if mode, ok := t3.Held(1); !ok || mode != X {
		t.Fatalf("t3 holds %v/%v, want X", mode, ok)
	}
	m.ReleaseAll(t3)
	if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
		t.Fatalf("lock table not empty after releases: %+v", s)
	}
}

func TestExclusiveBlocksAndWakes(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	if err := m.Acquire(t1, 7, X, 0); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		acquired <- m.Acquire(t2, 7, X, time.Second)
	}()
	select {
	case err := <-acquired:
		t.Fatalf("t2 acquired while t1 held X: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(t1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("t2 never woke")
	}
	m.ReleaseAll(t2)
}

// TestAcquireKeepsTheOrder: a transaction waits for granules in
// ascending order, each once. Acquire panics on a granule below one it
// holds, and names both; it panics too when a held granule is asked for
// again, in any mode; a descriptor ReleaseAll has reset starts from the
// bottom again; and TryAcquireAll, which never waits, takes its set in
// any order, but only on a descriptor that holds nothing.
func TestAcquireKeepsTheOrder(t *testing.T) {
	m := NewManager()
	txn := m.Begin()
	catch := func(f func()) (msg string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	acquire := func(g GranuleID, mode Mode) string {
		t.Helper()
		return catch(func() {
			if err := m.Acquire(txn, g, mode, time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}

	for _, g := range []GranuleID{0, 5, 1<<32 + 7} {
		if msg := acquire(g, IX); msg != "" {
			t.Fatalf("ascending Acquire of %d panicked: %s", g, msg)
		}
	}
	msg := acquire(6, X)
	if msg == "" {
		t.Fatal("Acquire of granule 6 while holding 4294967303 did not panic")
	}
	if !strings.Contains(msg, "granule 6 ") || !strings.Contains(msg, "granule 4294967303") {
		t.Fatalf("panic %q does not name both granules", msg)
	}
	if _, ok := txn.Held(6); ok || txn.HeldCount() != 3 || m.Stats() != (Stats{Granules: 3}) {
		t.Fatalf("the refused request changed the table: %d held, %+v", txn.HeldCount(), m.Stats())
	}

	// Held, below the top or at it: asking again in any mode panics, and
	// leaves the grant as it was.
	for _, g := range []GranuleID{5, 1<<32 + 7} {
		for _, mode := range []Mode{IX, S, X} {
			if msg := acquire(g, mode); !strings.Contains(msg, fmt.Sprintf("granule %d ", g)) {
				t.Fatalf("Acquire of held granule %d in %v: panic %q, want one naming it", g, mode, msg)
			}
		}
		if mode, ok := txn.Held(g); !ok || mode != IX {
			t.Fatalf("granule %d held in %v (held %v) after the refused requests, want IX", g, mode, ok)
		}
	}
	if txn.HeldCount() != 3 || m.Stats() != (Stats{Granules: 3}) {
		t.Fatalf("the refused requests changed the table: %d held, %+v", txn.HeldCount(), m.Stats())
	}
	// A try takes a whole set: not on a descriptor that holds something.
	if msg := catch(func() { m.TryAcquireAll(txn, []Req{{G: 1 << 33, Mode: X}}) }); msg == "" {
		t.Fatal("TryAcquireAll on a descriptor holding three granules did not panic")
	}

	m.ReleaseAll(txn)
	if msg := acquire(1, X); msg != "" {
		t.Fatalf("Acquire of granule 1 after ReleaseAll panicked: %s", msg)
	}
	m.ReleaseAll(txn)

	if !m.TryAcquireAll(txn, []Req{{G: 1<<32 + 7, Mode: X}, {G: 5, Mode: X}, {G: 0, Mode: IX}}) {
		t.Fatal("try refused on a free table")
	}
	// What the try granted counts towards the order.
	if msg := acquire(6, X); msg == "" {
		t.Fatal("Acquire of granule 6 under a tried granule 4294967303 did not panic")
	}
	m.ReleaseAll(txn)
	if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
		t.Fatalf("lock table not empty after releases: %+v", s)
	}
}

func TestFIFOFairness(t *testing.T) {
	// A queued X request must not be starved by later S requests.
	m := NewManager()
	holder := m.Begin()
	if err := m.Acquire(holder, 9, S, 0); err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	record := func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	}
	writer := m.Begin()
	wDone := make(chan struct{})
	go func() {
		if err := m.Acquire(writer, 9, X, 5*time.Second); err != nil {
			t.Error(err)
		}
		record(1)
		m.ReleaseAll(writer)
		close(wDone)
	}()
	time.Sleep(20 * time.Millisecond) // writer is now queued
	reader := m.Begin()
	rDone := make(chan struct{})
	go func() {
		if err := m.Acquire(reader, 9, S, 5*time.Second); err != nil {
			t.Error(err)
		}
		record(2)
		m.ReleaseAll(reader)
		close(rDone)
	}()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(holder)
	<-wDone
	<-rDone
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("grant order = %v, want writer first", order)
	}
}

// TestTimeoutWakesWaitersBehind: a request that times out leaves the
// queue, and the compatible requests that were only waiting behind it
// (FIFO) must be granted then, not at the holder's next release.
func TestTimeoutWakesWaitersBehind(t *testing.T) {
	m := NewManager()
	holder := m.Begin()
	if err := m.Acquire(holder, 5, S, 0); err != nil {
		t.Fatal(err)
	}
	writer := m.Begin()
	wErr := make(chan error, 1)
	go func() { wErr <- m.Acquire(writer, 5, X, 50*time.Millisecond) }()
	waitForWaiters(t, m, 1)
	reader := m.Begin()
	rErr := make(chan error, 1)
	go func() { rErr <- m.Acquire(reader, 5, S, 10*time.Second) }()
	waitForWaiters(t, m, 2)

	if err := <-wErr; !errors.Is(err, ErrTimeout) {
		t.Fatalf("writer: %v, want ErrTimeout", err)
	}
	// The holder keeps its S: only the withdrawal can admit the reader.
	select {
	case err := <-rErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader still blocked after the X request ahead of it withdrew")
	}
	m.ReleaseAll(writer)
	m.ReleaseAll(reader)
	m.ReleaseAll(holder)
	if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
		t.Fatalf("lock table not empty after releases: %+v", s)
	}
}

func TestIntentionLocksAllowFineGrainedConcurrency(t *testing.T) {
	// Two updaters IX on the tree granule plus X on different leaf
	// granules run concurrently; a whole-tree S blocks both.
	m := NewManager()
	u1, u2, q := m.Begin(), m.Begin(), m.Begin()
	const tree = GranuleID(0)
	if err := m.Acquire(u1, tree, IX, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(u2, tree, IX, 0); err != nil {
		t.Fatal(err) // IX-IX compatible
	}
	if err := m.Acquire(u1, 100, X, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(u2, 101, X, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(q, tree, S, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("tree-S with IX holders: err = %v, want timeout", err)
	}
	m.ReleaseAll(u1)
	m.ReleaseAll(u2)
	if err := m.Acquire(q, tree, S, time.Second); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(q)
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	const (
		workers  = 16
		granules = 8
		rounds   = 300
	)
	var active [granules]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				txn := m.Begin()
				g := GranuleID((w*31 + i*17) % granules)
				exclusive := (w+i)%3 == 0
				mode := S
				if exclusive {
					mode = X
				}
				if err := m.Acquire(txn, g, mode, 5*time.Second); err != nil {
					t.Error(err)
					return
				}
				if exclusive {
					if got := active[g].Add(1); got != 1 {
						t.Errorf("X held with %d others active on %d", got-1, g)
					}
					active[g].Add(-1)
				}
				m.ReleaseAll(txn)
			}
		}(w)
	}
	wg.Wait()
	if s := m.Stats(); s.Granules != 0 {
		t.Fatalf("lock table leaked: %+v", s)
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{IX: "IX", S: "S", X: "X"}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("Mode %d string = %q", int(m), m.String())
		}
	}
	if Mode(17).String() == "" {
		t.Fatal("unknown mode name empty")
	}
}

// waitForWaiters returns once the table holds the given number of queued
// requests.
func waitForWaiters(t *testing.T, m *Manager, waiters int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.Stats().Waiters != waiters; {
		if time.Now().After(deadline) {
			t.Fatalf("lock table never reached %d waiters: %+v", waiters, m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTryAcquireAll: the try takes a whole set or nothing, whatever
// stands in its way and wherever in the set it stands; it is turned away
// behind a queued request even when the modes would admit it; a refused
// try leaves the table as it found it; and a descriptor that ReleaseAll
// has reset holds nothing and serves the next cycle.
func TestTryAcquireAll(t *testing.T) {
	const n = 4
	// The lock set of an update and the lock set of a window query.
	update := func() []Req {
		return []Req{{G: 0, Mode: IX}, {G: 11, Mode: X}, {G: 12, Mode: X}, {G: 1<<32 + 7, Mode: X}}
	}
	query := func() []Req {
		return []Req{{G: 11, Mode: S}, {G: 12, Mode: S}, {G: 13, Mode: S}, {G: 14, Mode: S}}
	}
	// Each obstacle is put on granule k of its set; granted says whether
	// the try must succeed all the same, and put returns what removes the
	// obstacle again.
	obstacles := []struct {
		name    string
		set     func() []Req
		granted bool
		put     func(t *testing.T, m *Manager, r Req) (undo func())
	}{
		{"free", update, true, func(*testing.T, *Manager, Req) func() { return func() {} }},
		{"compatible holder", query, true, func(t *testing.T, m *Manager, r Req) func() {
			h := m.Begin()
			if err := m.Acquire(h, r.G, r.Mode, 0); err != nil {
				t.Fatal(err)
			}
			return func() { m.ReleaseAll(h) }
		}},
		{"incompatible holder", update, false, func(t *testing.T, m *Manager, r Req) func() {
			h := m.Begin()
			if err := m.Acquire(h, r.G, S, 0); err != nil {
				t.Fatal(err)
			}
			return func() { m.ReleaseAll(h) }
		}},
		{"queued waiter", query, false, func(t *testing.T, m *Manager, r Req) func() {
			// The holder's S admits whatever the query asks for; what turns
			// the try away is the X request queued behind the holder.
			h, w := m.Begin(), m.Begin()
			if err := m.Acquire(h, r.G, S, 0); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- m.Acquire(w, r.G, X, 10*time.Second) }()
			waitForWaiters(t, m, 1)
			return func() {
				m.ReleaseAll(h)
				if err := <-done; err != nil {
					t.Error(err)
				}
				m.ReleaseAll(w)
			}
		}},
	}
	for _, ob := range obstacles {
		for k := 0; k < n; k++ {
			t.Run(fmt.Sprintf("%s at %d", ob.name, k), func(t *testing.T) {
				m := NewManager()
				reqs := ob.set()
				undo := ob.put(t, m, reqs[k])
				before := m.Stats()

				txn := m.Begin()
				if got := m.TryAcquireAll(txn, reqs); got != ob.granted {
					t.Fatalf("TryAcquireAll = %v, want %v", got, ob.granted)
				}
				if !ob.granted {
					if txn.HeldCount() != 0 {
						t.Fatalf("refused try left %d granules on the descriptor", txn.HeldCount())
					}
					if after := m.Stats(); after != before {
						t.Fatalf("refused try changed the table: %+v, was %+v", after, before)
					}
					// Nothing of the set is held on its behalf: the granules
					// ahead of the obstacle are free for anyone.
					other := m.Begin()
					for _, r := range reqs[:k] {
						if err := m.Acquire(other, r.G, X, time.Second); err != nil {
							t.Fatalf("granule %d ahead of the refusal: %v", r.G, err)
						}
					}
					m.ReleaseAll(other)
					undo()
					// With the obstacle gone the same descriptor gets the set.
					if !m.TryAcquireAll(txn, reqs) {
						t.Fatal("try refused on a free table")
					}
				} else {
					defer undo()
				}
				for _, r := range reqs {
					if mode, ok := txn.Held(r.G); !ok || mode != r.Mode {
						t.Fatalf("granule %d held in %v (held=%v), want %v", r.G, mode, ok, r.Mode)
					}
				}
				// Held for real: a conflicting try by another owner is refused.
				other := m.Begin()
				if m.TryAcquireAll(other, []Req{{G: reqs[n-1].G, Mode: X}}) {
					t.Fatal("a second owner got X on a granule of the set")
				}
				m.ReleaseAll(txn)
				if txn.HeldCount() != 0 {
					t.Fatalf("descriptor holds %d granules after ReleaseAll", txn.HeldCount())
				}
				// The reset descriptor is as good as new, and left nothing behind.
				if !m.TryAcquireAll(other, reqs) {
					t.Fatal("the set is not free after its holder released it")
				}
				m.ReleaseAll(other)
				if !m.TryAcquireAll(txn, reqs) {
					t.Fatal("reused descriptor refused on a free set")
				}
				m.ReleaseAll(txn)
			})
		}
	}

	t.Run("table empties", func(t *testing.T) {
		m := NewManager()
		txn := m.Begin()
		for i := 0; i < 3; i++ {
			if !m.TryAcquireAll(txn, update()) {
				t.Fatal("try refused on a free table")
			}
			m.ReleaseAll(txn)
		}
		if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
			t.Fatalf("lock table not empty after releases: %+v", s)
		}
	})

	t.Run("release wakes the queue", func(t *testing.T) {
		// A blocking request queued behind a set taken by a try is granted
		// when the set is released.
		m := NewManager()
		txn, w := m.Begin(), m.Begin()
		if !m.TryAcquireAll(txn, update()) {
			t.Fatal("try refused on a free table")
		}
		done := make(chan error, 1)
		go func() { done <- m.Acquire(w, 0, X, 10*time.Second) }()
		waitForWaiters(t, m, 1)
		m.ReleaseAll(txn)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(w)
	})
}

// TestTryAndBlockingStress mixes try-ers, blocking requests and requests
// that give up after a short wait on a few shared granules, every owner
// reusing one descriptor for all its cycles. Exclusive holders check that
// they are alone; a lost wake-up would leave a blocking request waiting
// out its long timeout, which fails the test; and a grant left behind on
// a reset descriptor would keep the table from emptying.
func TestTryAndBlockingStress(t *testing.T) {
	m := NewManager()
	const (
		workers  = 12
		granules = 4
		rounds   = 400
	)
	var exclusive, shared [granules]atomic.Int32
	enter := func(g GranuleID, mode Mode) {
		if mode == X {
			if n := exclusive[g].Add(1); n != 1 || shared[g].Load() != 0 {
				t.Errorf("X on %d beside %d exclusive and %d shared holders", g, n-1, shared[g].Load())
			}
		} else {
			shared[g].Add(1)
			if n := exclusive[g].Load(); n != 0 {
				t.Errorf("S on %d beside %d exclusive holders", g, n)
			}
		}
	}
	leave := func(g GranuleID, mode Mode) {
		if mode == X {
			exclusive[g].Add(-1)
		} else {
			shared[g].Add(-1)
		}
	}
	var granted, refused, timedOut atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txn := m.Begin()
			for i := 0; i < rounds; i++ {
				// Two granules in ascending order, as the protocol has it.
				a := GranuleID((w + i) % granules)
				b := GranuleID((w*7 + i*3) % granules)
				if a > b {
					a, b = b, a
				}
				reqs := []Req{{G: a, Mode: S}}
				if b != a {
					reqs = append(reqs, Req{G: b, Mode: X})
				} else if (w+i)%2 == 0 {
					reqs[0].Mode = X
				}
				ok := false
				switch w % 3 {
				case 0: // try only
					ok = m.TryAcquireAll(txn, reqs)
					if !ok {
						refused.Add(1)
					}
				case 1: // try, then wait for as long as it takes
					if ok = m.TryAcquireAll(txn, reqs); ok {
						break
					}
					for _, r := range reqs {
						if err := m.Acquire(txn, r.G, r.Mode, 30*time.Second); err != nil {
							t.Errorf("blocking request starved: %v", err)
							m.ReleaseAll(txn)
							return
						}
					}
					ok = true
				case 2: // wait briefly and withdraw
					ok = true
					for _, r := range reqs {
						if err := m.Acquire(txn, r.G, r.Mode, 50*time.Microsecond); err != nil {
							if !errors.Is(err, ErrTimeout) {
								t.Error(err)
							}
							timedOut.Add(1)
							ok = false
							break
						}
					}
				}
				if ok {
					granted.Add(1)
					for _, r := range reqs {
						enter(r.G, r.Mode)
					}
					runtime.Gosched() // let the others find the granules held
					for _, r := range reqs {
						leave(r.G, r.Mode)
					}
				}
				m.ReleaseAll(txn)
				if txn.HeldCount() != 0 {
					t.Errorf("descriptor holds %d granules after ReleaseAll", txn.HeldCount())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
		t.Fatalf("lock table not empty after the run: %+v", s)
	}
	if granted.Load() == 0 || refused.Load() == 0 {
		t.Fatalf("the mix exercised too little: %d granted, %d refused, %d timed out", granted.Load(), refused.Load(), timedOut.Load())
	}
	t.Logf("%d granted, %d tries refused, %d requests timed out", granted.Load(), refused.Load(), timedOut.Load())
}
