package core

import (
	"math/rand"
	"testing"

	"serenade/internal/sessions"
)

// TestMergeNeighborsAgainstMap drives the posting-list merge with random
// descending lists (shared sessions, empty-after-one lists, m both above and
// below the union size) and checks it against a plain map oracle of the
// union: the m largest ids, each scored by summing π over its lists in list
// order, with MaxPos from the first list containing it.
func TestMergeNeighborsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	times := make([]int64, 64)
	for i := range times {
		times[i] = int64(i / 3) // ties: timestamps never order the merge
	}
	for round := 0; round < 500; round++ {
		var heads []postingHead
		type acc struct {
			score  float64
			maxPos int
		}
		oracle := map[sessions.SessionID]*acc{}
		for pos := 1 + rng.Intn(9); pos >= 1; pos-- {
			var list []sessions.SessionID
			for id := 63; id >= 0; id-- {
				if rng.Intn(4) == 0 {
					list = append(list, sessions.SessionID(id))
				}
			}
			if len(list) == 0 {
				continue
			}
			pi := rng.Float64()
			heads = append(heads, postingHead{postings: list, pi: pi, item: sessions.ItemID(pos), pos: int32(pos)})
			for _, id := range list {
				if a, ok := oracle[id]; ok {
					a.score += pi
				} else {
					oracle[id] = &acc{score: pi, maxPos: pos}
				}
			}
		}
		m := 1 + rng.Intn(40)
		got := mergeNeighbors(nil, heads, m, times)
		want := min(m, len(oracle))
		if len(got) != want {
			t.Fatalf("round %d: %d neighbours, want %d", round, len(got), want)
		}
		for i, nb := range got {
			if i > 0 && nb.ID >= got[i-1].ID {
				t.Fatalf("round %d: ids not strictly descending at %d: %d after %d", round, i, nb.ID, got[i-1].ID)
			}
			a := oracle[nb.ID]
			if a == nil || nb.Score != a.score || nb.MaxPos != a.maxPos || nb.Time != times[nb.ID] {
				t.Fatalf("round %d: neighbour %+v, oracle %+v", round, nb, a)
			}
		}
		// Everything left out is older than everything emitted.
		if len(got) > 0 {
			floor := got[len(got)-1].ID
			for id := range oracle {
				if id > floor {
					found := false
					for _, nb := range got {
						found = found || nb.ID == id
					}
					if !found {
						t.Fatalf("round %d: session %d is more recent than the merge's last pick %d but missing", round, id, floor)
					}
				}
			}
		}
	}
}

func TestItemAccumulatorSparseReset(t *testing.T) {
	acc := newItemAccumulator(10)
	acc.add(3, 1.5)
	acc.add(7, 2.0)
	acc.add(3, 0.5)
	if len(acc.touched) != 2 {
		t.Errorf("touched = %v, want exactly {3,7}", acc.touched)
	}
	if acc.scores[3] != 2.0 || acc.scores[7] != 2.0 {
		t.Errorf("scores = %v/%v, want 2/2", acc.scores[3], acc.scores[7])
	}
	acc.resetSparse()
	for i, s := range acc.scores {
		if s != 0 {
			t.Errorf("scores[%d] = %v after reset, want 0", i, s)
		}
	}
	if len(acc.touched) != 0 {
		t.Errorf("touched not cleared: %v", acc.touched)
	}
}

// TestRecommenderMemoryIndependentOfSessions pins the O(M + numItems) bound:
// two recommenders with the same parameters and item vocabulary must report
// the same footprint regardless of how many sessions their indexes hold.
func TestRecommenderMemoryIndependentOfSessions(t *testing.T) {
	rngA := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(12))
	dsSmall := randomDataset(rngA, 100, 50)
	dsLarge := randomDataset(rngB, 4000, 50)
	idxSmall := mustIndex(t, dsSmall, 0)
	idxLarge := mustIndex(t, dsLarge, 0)
	if idxSmall.NumItems() != idxLarge.NumItems() {
		t.Skipf("vocabularies diverged (%d vs %d)", idxSmall.NumItems(), idxLarge.NumItems())
	}
	p := Params{M: 50, K: 20}
	a := mustRecommender(t, idxSmall, p)
	b := mustRecommender(t, idxLarge, p)
	fa, fb := a.MemoryFootprint(), b.MemoryFootprint()
	if fa <= 0 || fb <= 0 {
		t.Fatalf("footprints must be positive: %d, %d", fa, fb)
	}
	if fa != fb {
		t.Errorf("footprint varies with session count: %d (100 sessions) vs %d (4000 sessions)", fa, fb)
	}
}
