package dgl

import (
	"errors"
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
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, SIX, true}, {IS, X, false},
		{IX, IX, true}, {IX, S, false}, {IX, SIX, false}, {IX, X, false},
		{S, S, true}, {S, SIX, false}, {S, X, false},
		{SIX, SIX, false}, {SIX, X, false},
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

func TestCoversLattice(t *testing.T) {
	if !Covers(X, S) || !Covers(X, IX) || !Covers(SIX, S) || !Covers(SIX, IX) || !Covers(S, S) {
		t.Fatal("expected coverings missing")
	}
	if Covers(S, X) || Covers(IS, S) || Covers(IX, S) {
		t.Fatal("false coverings")
	}
}

func TestAcquireReleaseBasic(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	if err := m.Acquire(t1, 1, S, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, 1, S, 0); err != nil {
		t.Fatal(err) // S-S compatible
	}
	if err := m.Acquire(t2, 1, X, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("upgrade to X with S holder present: err = %v, want timeout", err)
	}
	m.ReleaseAll(t1)
	if err := m.Acquire(t2, 1, X, time.Second); err != nil {
		t.Fatal(err)
	}
	if mode, ok := t2.Held(1); !ok || mode != X {
		t.Fatalf("t2 holds %v/%v, want X", mode, ok)
	}
	m.ReleaseAll(t2)
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
	m.Release(t1, 7)
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

func TestReacquireStrongerIsUpgrade(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	if err := m.Acquire(t1, 3, IS, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t1, 3, IX, 0); err != nil {
		t.Fatal(err)
	}
	if mode, _ := t1.Held(3); mode != IX {
		t.Fatalf("mode after IS->IX = %v", mode)
	}
	// S + IX = SIX.
	if err := m.Acquire(t1, 3, S, 0); err != nil {
		t.Fatal(err)
	}
	if mode, _ := t1.Held(3); mode != SIX {
		t.Fatalf("mode after +S = %v, want SIX", mode)
	}
	// Weaker re-acquire is a no-op.
	if err := m.Acquire(t1, 3, IS, 0); err != nil {
		t.Fatal(err)
	}
	if mode, _ := t1.Held(3); mode != SIX {
		t.Fatalf("mode degraded to %v", mode)
	}
	m.ReleaseAll(t1)
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

func TestUpgradeDeadlockTimesOut(t *testing.T) {
	// Two S holders both upgrading to X deadlock; timeouts must rescue.
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	if err := m.Acquire(t1, 4, S, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(t2, 4, S, 0); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(t1, 4, X, 100*time.Millisecond) }()
	go func() { errs <- m.Acquire(t2, 4, X, 100*time.Millisecond) }()
	timeouts := 0
	for i := 0; i < 2; i++ {
		if err := <-errs; errors.Is(err, ErrTimeout) {
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Fatal("upgrade deadlock did not time out")
	}
	m.ReleaseAll(t1)
	m.ReleaseAll(t2)
}

// TestTimeoutWakesWaitersBehind: a request that times out leaves the
// queue, and the compatible requests that were only waiting behind it
// (FIFO) must be granted then, not at the holder's next release.
func TestTimeoutWakesWaitersBehind(t *testing.T) {
	m := NewManager()
	waitFor := func(waiters int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); m.Stats().Waiters != waiters; {
			if time.Now().After(deadline) {
				t.Fatalf("lock table never reached %d waiters: %+v", waiters, m.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	holder := m.Begin()
	if err := m.Acquire(holder, 5, IS, 0); err != nil {
		t.Fatal(err)
	}
	writer := m.Begin()
	wErr := make(chan error, 1)
	go func() { wErr <- m.Acquire(writer, 5, X, 50*time.Millisecond) }()
	waitFor(1)
	reader := m.Begin()
	rErr := make(chan error, 1)
	go func() { rErr <- m.Acquire(reader, 5, IS, 10*time.Second) }()
	waitFor(2)

	if err := <-wErr; !errors.Is(err, ErrTimeout) {
		t.Fatalf("writer: %v, want ErrTimeout", err)
	}
	// The holder keeps its IS: only the withdrawal can admit the reader.
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
	names := map[Mode]string{IS: "IS", IX: "IX", S: "S", SIX: "SIX", X: "X"}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("Mode %d string = %q", int(m), m.String())
		}
	}
	if Mode(17).String() == "" {
		t.Fatal("unknown mode name empty")
	}
}
