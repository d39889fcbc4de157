package scratch

import "testing"

// TestListKeepsWhatItIsHanded: a value put back is the next one got, up to
// Cap idle values; past that they are dropped, and an empty list makes new
// ones with New.
func TestListKeepsWhatItIsHanded(t *testing.T) {
	made := 0
	l := List[[]int]{New: func() *[]int { made++; return new([]int) }}
	vs := make([]*[]int, Cap+4)
	for i := range vs {
		vs[i] = l.Get()
	}
	if made != len(vs) {
		t.Fatalf("New ran %d times for %d gets from an empty list", made, len(vs))
	}
	for _, v := range vs {
		l.Put(v)
	}
	for i := Cap - 1; i >= 0; i-- {
		if got := l.Get(); got != vs[i] {
			t.Fatalf("get %d: not the value put back", Cap-1-i)
		}
	}
	l.Get()
	if made != len(vs)+1 {
		t.Fatalf("the list kept more than Cap = %d idle values", Cap)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); allocs != 0 {
		t.Fatalf("a get and put of a kept value allocate %v times", allocs)
	}
}

func TestKeepRoom(t *testing.T) {
	within := make([]int, 3, 8)
	if got := KeepRoom(within, 8); len(got) != 0 || cap(got) != 8 || &got[:1][0] != &within[0] {
		t.Fatalf("KeepRoom within the bound: len %d cap %d, want the buffer emptied", len(got), cap(got))
	}
	if got := KeepRoom(make([]int, 3, 9), 8); len(got) != 0 || cap(got) != 8 {
		t.Fatalf("KeepRoom past the bound: len %d cap %d, want 0 and 8", len(got), cap(got))
	}
}
