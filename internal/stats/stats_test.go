package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersAndSnapshot(t *testing.T) {
	io := &IO{}
	io.CountRead()
	io.CountRead()
	io.CountWrite()
	io.CountBufferHit()
	io.CountSplit()
	io.CountReinserts(7)
	io.CountEviction(true)
	io.CountEviction(false)
	io.CountPinFallback()
	s := io.Snapshot()
	if s.Reads != 2 || s.Writes != 1 || s.BufferHits != 1 || s.Splits != 1 || s.Reinserts != 7 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Evictions != 2 || s.DirtyWriteBacks != 1 || s.PinFallbacks != 1 {
		t.Fatalf("pool events in snapshot = %+v", s)
	}
	if d := s.Sub(Snapshot{Evictions: 1, DirtyWriteBacks: 1}); d.Evictions != 1 || d.DirtyWriteBacks != 0 || d.PinFallbacks != 1 {
		t.Fatalf("pool events in delta = %+v", d)
	}
	if io.Total() != 3 || s.Total() != 3 {
		t.Fatalf("total = %d / %d", io.Total(), s.Total())
	}
	io.CountBackground(2)
	if io.Background() != 2 || io.Foreground() != 1 || io.Total() != 3 {
		t.Fatalf("background = %d, foreground = %d, total = %d; want 2, 1, 3", io.Background(), io.Foreground(), io.Total())
	}
}

func TestSubAndHitRate(t *testing.T) {
	io := &IO{}
	io.CountRead()
	base := io.Snapshot()
	io.CountRead()
	io.CountBufferHit()
	io.CountBufferHit()
	io.CountBufferHit()
	d := io.Snapshot().Sub(base)
	if d.Reads != 1 || d.BufferHits != 3 {
		t.Fatalf("delta = %+v", d)
	}
	if got := d.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
	if (Snapshot{}).HitRate() != 0 {
		t.Fatal("empty snapshot hit rate should be 0")
	}
}

func TestReset(t *testing.T) {
	io := &IO{}
	io.CountRead()
	io.CountWrite()
	io.CountEviction(true)
	io.CountPinFallback()
	io.CountBackground(1)
	io.Reset()
	if io.Total() != 0 || io.Background() != 0 || io.Foreground() != 0 || io.BufferHits() != 0 || io.Snapshot() != (Snapshot{}) {
		t.Fatal("reset did not zero counters")
	}
}

func TestStringContainsFields(t *testing.T) {
	s := Snapshot{Reads: 1, Writes: 2, BufferHits: 3, Splits: 4, Reinserts: 5}
	str := s.String()
	for _, want := range []string{"reads=1", "writes=2", "hits=3", "splits=4", "reinserts=5"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}

func TestConcurrentCounting(t *testing.T) {
	io := &IO{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				io.CountRead()
				io.CountWrite()
			}
		}()
	}
	wg.Wait()
	if io.Reads() != 8000 || io.Writes() != 8000 {
		t.Fatalf("reads=%d writes=%d", io.Reads(), io.Writes())
	}
}
