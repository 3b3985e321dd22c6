package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"serenade/internal/sessions"
)

// TestSelectNeighborsAgainstMap drives the posting-list merge and the
// counting top-K with random descending lists and checks them against a
// plain map oracle of the union: the m largest ids, each scored by summing
// π over its lists in list order, with MaxPos from the first list holding
// it, sorted by (score, id) and cut at k. Every π is a multiple of 0.25, so
// sums over different sets of lists coincide bitwise (0.25 + 0.5 == 0.75)
// and runs of equal scores span several head masks. The rounds cover m
// above and below the union size, k == m, k == 1, and a k boundary that
// falls inside a tie run spanning two masks.
func TestSelectNeighborsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	times := make([]int64, 64)
	for i := range times {
		times[i] = int64(i / 3) // non-decreasing in id, with ties
	}
	type acc struct {
		id     sessions.SessionID
		score  float64
		maxPos int
		mask   uint32
	}
	var mBelowUnion, mAboveUnion, splitTies int
	for round := 0; round < 1000; round++ {
		var heads []postingHead
		oracle := map[sessions.SessionID]*acc{}
		universe := 8 + rng.Intn(len(times)-7)
		for pos := 1 + rng.Intn(maxHeads); pos >= 1; pos-- {
			var list []sessions.SessionID
			for id := universe - 1; id >= 0; id-- {
				if rng.Intn(4) == 0 {
					list = append(list, sessions.SessionID(id))
				}
			}
			if len(list) == 0 {
				continue
			}
			pi := 0.25 * float64(1+rng.Intn(4))
			bit := uint32(1) << len(heads)
			heads = append(heads, postingHead{postings: list, pi: pi, item: sessions.ItemID(pos), pos: int32(pos)})
			for _, id := range list {
				if a, ok := oracle[id]; ok {
					a.score += pi
					a.mask |= bit
				} else {
					oracle[id] = &acc{id: id, score: pi, maxPos: pos, mask: bit}
				}
			}
		}
		m := 1 + rng.Intn(40)
		if m < len(oracle) {
			mBelowUnion++
		} else {
			mAboveUnion++
		}

		// The oracle: the m most recent sessions, best first by (score, id).
		var want []*acc
		for _, a := range oracle {
			want = append(want, a)
		}
		slices.SortFunc(want, func(a, b *acc) int { return cmp.Compare(b.id, a.id) })
		want = want[:min(m, len(want))]
		slices.SortFunc(want, func(a, b *acc) int {
			if a.score != b.score {
				return cmp.Compare(b.score, a.score)
			}
			return cmp.Compare(b.id, a.id)
		})

		for _, k := range []int{1, 1 + rng.Intn(m), m} {
			wantK := want[:min(k, len(want))]
			if k < len(want) && want[k-1].score == want[k].score {
				// Does the tie run cut by k hold more than one mask?
				masks := map[uint32]bool{}
				for _, a := range want {
					if a.score == want[k].score {
						masks[a.mask] = true
					}
				}
				if len(masks) > 1 {
					splitTies++
				}
			}
			fresh := slices.Clone(heads) // the merge consumes its heads
			sel := newNeighborSelector(maxHeads, m, k)
			got := sel.selectNeighbors(fresh, m, k, times)
			if len(got) != len(wantK) {
				t.Fatalf("round %d (m=%d k=%d): %d neighbours, want %d", round, m, k, len(got), len(wantK))
			}
			for i, nb := range got {
				w := wantK[i]
				if nb.ID != w.id || nb.Score != w.score || nb.MaxPos != w.maxPos || nb.Time != times[w.id] {
					t.Fatalf("round %d (m=%d k=%d): rank %d is %+v, oracle %+v", round, m, k, i, nb, *w)
				}
			}
			for mask, c := range sel.counts {
				if c != 0 {
					t.Fatalf("round %d: mask table entry %b left at %d", round, mask, c)
				}
			}
		}
	}
	if mBelowUnion < 100 || mAboveUnion < 100 || splitTies < 100 {
		t.Fatalf("weak coverage: m below union %d, above %d, k inside a multi-mask tie run %d rounds",
			mBelowUnion, mAboveUnion, splitTies)
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

// TestRecommenderMemoryFootprintScaling pins what the footprint counts: the
// candidate buffer grows it by at least 8 bytes per unit of M, and the mask
// table by at least 4·2^MaxSessionLength bytes.
func TestRecommenderMemoryFootprintScaling(t *testing.T) {
	idx := mustIndex(t, randomDataset(rand.New(rand.NewSource(11)), 300, 50), 0)
	footprint := func(p Params) int64 { return mustRecommender(t, idx, p).MemoryFootprint() }
	base := footprint(Params{M: 50, K: 20})
	if grown := footprint(Params{M: 500, K: 20}); grown-base < 8*450 {
		t.Errorf("M 50 → 500 grew the footprint by %d bytes, want at least %d", grown-base, 8*450)
	}
	for _, l := range []int{10, 16} {
		grown := footprint(Params{M: 50, K: 20, MaxSessionLength: l})
		if want := int64(4 * (1<<l - 1<<DefaultMaxSessionLength)); grown-base < want {
			t.Errorf("MaxSessionLength %d → %d grew the footprint by %d bytes, want at least %d",
				DefaultMaxSessionLength, l, grown-base, want)
		}
	}
}
