package incremental

import (
	"iter"
	"math/rand"
	"reflect"
	"testing"

	"serenade/internal/compressed"
	"serenade/internal/core"
	"serenade/internal/sessions"
)

// countingSource forwards to a core.Source and counts the postings the walk
// takes from each item's list.
type countingSource struct {
	core.Source
	taken map[sessions.ItemID]int
}

func (c *countingSource) RecentSessions(item sessions.ItemID) iter.Seq[sessions.SessionID] {
	return func(yield func(sessions.SessionID) bool) {
		for j := range c.Source.RecentSessions(item) {
			c.taken[item]++
			if !yield(j) {
				return
			}
		}
	}
}

type walker interface {
	NeighborSessions([]sessions.ItemID) []core.Neighbor
	Recommend([]sessions.ItemID, int) []core.ScoredItem
}

func mustWalk(t *testing.T, src core.Source, p core.Params, w core.Walk) *core.ReferenceRecommender {
	t.Helper()
	r, err := core.NewReferenceRecommender(src, p, w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestWalkOverEverySource is the storage differential for core's one walk:
// over the compressed form of a rebuilt index, and over the incremental
// index after a random sequence of appends, evictions and compactions, it
// answers bitwise like the walk over the rebuilt *core.Index. The clock is
// coarse, so same-second sessions tie and M is small enough to evict among
// them. It runs the paper's walk and the no-opt one. The last check adds a
// query whose list holds more than M delta sessions, so its early stop falls
// inside the delta and the base list is never read.
func TestWalkOverEverySource(t *testing.T) {
	const vocab, hot, m = 40, sessions.ItemID(0), 8
	p := core.Params{M: m, K: 5}
	for _, w := range []core.Walk{{}, {HeapArity: 2, DisableEarlyStopping: true}} {
		st := newStream(21)
		st.coarse = true
		for i := 0; i < 80; i++ {
			st.next(vocab)
		}
		x, err := FromDataset(st.dataset(), 0)
		if err != nil {
			t.Fatal(err)
		}
		inc := walkRecommender(t, x, p, w)
		// held is what x holds: the base after the last compaction plus
		// every session appended since.
		held := append([]sessions.Session(nil), st.all...)
		var horizon int64
		rng := rand.New(rand.NewSource(22))

		check := func(qs [][]sessions.ItemID) {
			t.Helper()
			idx, err := core.BuildIndex(sessions.Renumber(sessions.FromSessions("held", held)), 0)
			if err != nil {
				t.Fatal(err)
			}
			want := mustWalk(t, idx, p, w)
			for _, got := range []struct {
				name string
				r    walker
			}{{"compressed", mustWalk(t, compressed.FromIndex(idx), p, w)}, {"incremental", inc}} {
				for _, q := range qs {
					if a, b := want.NeighborSessions(q), got.r.NeighborSessions(q); !reflect.DeepEqual(a, b) {
						t.Fatalf("walk %+v, %s: neighbours disagree with a rebuild on %v:\n%v\nvs\n%v", w, got.name, q, b, a)
					}
					if a, b := want.Recommend(q, 21), got.r.Recommend(q, 21); !reflect.DeepEqual(a, b) {
						t.Fatalf("walk %+v, %s: recommendations disagree with a rebuild on %v:\n%v\nvs\n%v", w, got.name, q, b, a)
					}
				}
			}
		}

		for step := 0; step < 150; step++ {
			switch r := rng.Intn(10); {
			case r < 7:
				items, tm := st.next(vocab)
				if _, err := x.Append(items, tm); err != nil {
					t.Fatal(err)
				}
				held = append(held, st.all[len(st.all)-1])
			case r < 8:
				if h := held[rng.Intn(len(held))].Time(); h > horizon {
					horizon = h
				}
				x.EvictBefore(horizon)
			default:
				if err := x.Compact(); err != nil {
					t.Fatal(err)
				}
				var live []sessions.Session
				for _, s := range held {
					if s.Time() >= horizon {
						live = append(live, s)
					}
				}
				held = live
			}
			if step%25 == 24 {
				check(queries(rng, vocab, 30))
			}
		}

		// More than M delta sessions hold the hot item.
		for i := 0; i < m+3; i++ {
			items, tm := st.next(vocab)
			items[0] = hot // aliases st.all's copy, so held sees it too
			if _, err := x.Append(items, tm); err != nil {
				t.Fatal(err)
			}
			held = append(held, st.all[len(st.all)-1])
		}
		q := []sessions.ItemID{hot}
		check(append(queries(rng, vocab, 30), q))

		counted := &countingSource{Source: (*view)(x), taken: map[sessions.ItemID]int{}}
		mustWalk(t, counted, p, w).NeighborSessions(q)
		delta, base := len(x.deltaPost[hot]), len(x.base.Postings(hot))
		want := m + 1
		if w.DisableEarlyStopping {
			want = delta + base
		}
		if counted.taken[hot] != want || delta < m+1 {
			t.Errorf("walk %+v took %d postings of the hot item (delta %d, base %d), want %d", w, counted.taken[hot], delta, base, want)
		}
	}
}
