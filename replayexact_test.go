package burtree_test

import (
	"math/rand"
	"testing"

	"burtree"
)

// seededReplay runs one client's seeded mix — 95 % Update, 4 % Search,
// 1 % Nearest — on a fresh GBU index with a 100-page pool and returns
// the counters it leaves.
func seededReplay(t *testing.T, seed int64) burtree.Stats {
	t.Helper()
	const objects, calls = 20000, 60000
	x, err := burtree.Open(burtree.Options{
		Strategy:        burtree.GeneralizedBottomUp,
		ExpectedObjects: objects,
		BufferPages:     100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for id := uint64(0); id < objects; id++ {
		if err := x.Insert(id, burtree.Point{X: rng.Float64(), Y: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < calls; i++ {
		switch r := rng.Intn(100); {
		case r < 95:
			id := uint64(rng.Intn(objects))
			p, _ := x.Location(id)
			p.X += (rng.Float64()*2 - 1) * 0.03
			p.Y += (rng.Float64()*2 - 1) * 0.03
			err = x.Update(id, p)
		case r < 99:
			cx, cy := rng.Float64(), rng.Float64()
			_, err = x.Search(burtree.NewRect(cx, cy, cx+0.03, cy+0.03))
		default:
			_, err = x.Nearest(burtree.Point{X: rng.Float64(), Y: rng.Float64()}, 10)
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	return x.Stats()
}

// TestSeededReplayRepeatsExactly: with one client and one seed the page
// traffic is a function of the inputs. The summary-assisted window query
// reads the level-1 nodes in the order of the summary's level array, and
// which of them the 100-page pool still holds depends on that order — so
// every counter repeats only if the order does.
func TestSeededReplayRepeatsExactly(t *testing.T) {
	a, b := seededReplay(t, 11), seededReplay(t, 11)
	if a != b {
		t.Fatalf("two runs of one seeded script left different counters:\n%+v\n%+v", a, b)
	}
	if a.DiskReads == 0 || a.Splits == 0 || a.Outcomes.Ascended == 0 {
		t.Fatalf("the script exercised too little to tell: %+v", a)
	}
}
