package dgl

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// A Txn waits with its own waiter and timer, so a blocking Acquire, once
// the Txn has waited before, allocates nothing — granted or timed out.

// spinUntilWaiters yields until the table holds n queued requests. It
// allocates nothing, so it may run inside a measured loop.
func spinUntilWaiters(m *Manager, n int) {
	for m.Stats().Waiters != n {
		runtime.Gosched()
	}
}

func TestBlockedAcquireAllocatesNothing(t *testing.T) {
	m := NewManager()
	holder, waiter := m.Begin(), m.Begin()
	const g = GranuleID(7)

	// The holder's release runs on a goroutine of its own, once the
	// waiter is queued behind it.
	release, released := make(chan struct{}), make(chan struct{})
	go func() {
		for range release {
			spinUntilWaiters(m, 1)
			m.ReleaseAll(holder)
			released <- struct{}{}
		}
	}()
	defer close(release)

	granted := testing.AllocsPerRun(200, func() {
		if err := m.Acquire(holder, g, X, 0); err != nil {
			t.Fatal(err)
		}
		release <- struct{}{}
		if err := m.Acquire(waiter, g, X, time.Minute); err != nil {
			t.Fatal(err)
		}
		<-released
		m.ReleaseAll(waiter)
	})
	timedOut := testing.AllocsPerRun(50, func() {
		if err := m.Acquire(holder, g, X, 0); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(waiter, g, X, 50*time.Microsecond); err != ErrTimeout {
			t.Fatalf("Acquire under a held X = %v, want ErrTimeout", err)
		}
		m.ReleaseAll(holder)
	})
	if granted != 0 || timedOut != 0 {
		t.Fatalf("allocs per blocked Acquire: %v granted, %v timed out; want 0", granted, timedOut)
	}
	if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
		t.Fatalf("lock table not empty after the runs: %+v", s)
	}
}

// TestTimeoutRacesGrantOnReusedTxn races a wait's timeout against the
// holder's release, on one Txn reused for every wait. Each call ends one
// of two ways: the Txn holds the granule, granted after the holder let go;
// or the call returned ErrTimeout, the Txn holds nothing and its request
// has left the queue. A grant that landed as the wait timed out must not
// leave its signal behind for the next wait to return on.
func TestTimeoutRacesGrantOnReusedTxn(t *testing.T) {
	m := NewManager()
	holder, waiter := m.Begin(), m.Begin()
	const g = GranuleID(3)
	const timeout = 100 * time.Microsecond
	rng := rand.New(rand.NewSource(1))
	rounds := 2000
	if testing.Short() {
		rounds = 500
	}
	var letGo atomic.Bool // set before the holder's release begins
	grants, timeouts := 0, 0
	for i := 0; i < rounds; i++ {
		if err := m.Acquire(holder, g, X, 0); err != nil {
			t.Fatal(err)
		}
		letGo.Store(false)
		done := make(chan struct{})
		delay := time.Duration(rng.Int63n(int64(2 * timeout)))
		go func() {
			defer close(done)
			time.Sleep(delay)
			letGo.Store(true)
			m.ReleaseAll(holder)
		}()
		err := m.Acquire(waiter, g, X, timeout)
		if err == nil && !letGo.Load() {
			t.Fatalf("round %d: Acquire returned before the holder let go", i)
		}
		<-done
		mode, held := waiter.Held(g)
		switch {
		case err == nil:
			if !held || mode != X {
				t.Fatalf("round %d: granted, but the Txn holds %v (%v)", i, mode, held)
			}
			grants++
		case errors.Is(err, ErrTimeout):
			if held {
				t.Fatalf("round %d: timed out, but the Txn holds %v", i, mode)
			}
			if s := m.Stats(); s.Waiters != 0 {
				t.Fatalf("round %d: timed out, but %d requests are still queued", i, s.Waiters)
			}
			timeouts++
		default:
			t.Fatalf("round %d: %v", i, err)
		}
		m.ReleaseAll(waiter)
		if s := m.Stats(); s.Granules != 0 || s.Waiters != 0 {
			t.Fatalf("round %d: lock table not empty after the releases: %+v", i, s)
		}
	}
	if grants == 0 || timeouts == 0 {
		t.Fatalf("the race was not run both ways: %d grants, %d timeouts", grants, timeouts)
	}
	t.Logf("%d grants, %d timeouts", grants, timeouts)
}
