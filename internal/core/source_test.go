package core

import (
	"iter"
	"math/rand"
	"reflect"
	"testing"

	"serenade/internal/sessions"
)

// countingSource is a Source that forwards to another and counts the
// postings the walk takes from each item's list.
type countingSource struct {
	Source
	taken map[sessions.ItemID]int
}

func newCountingSource(src Source) *countingSource {
	return &countingSource{Source: src, taken: map[sessions.ItemID]int{}}
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

func mustReference(t *testing.T, src Source, p Params, w Walk) *ReferenceRecommender {
	t.Helper()
	r, err := NewReferenceRecommender(src, p, w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReferenceOverFakeSource: the walk reads its index only through
// Source, so a forwarding fake gives the same answers as the *Index it
// wraps.
func TestReferenceOverFakeSource(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := mustIndex(t, tiedDataset(rng, 300, 40), 0)
	p := Params{M: 20, K: 10}
	fake := newCountingSource(idx)
	ref, overFake := mustReference(t, idx, p, Walk{}), mustReference(t, fake, p, Walk{})
	for trial := 0; trial < 200; trial++ {
		q := randomEvolving(rng, 40)
		assertSameNeighbors(t, q, append([]Neighbor(nil), ref.NeighborSessions(q)...), overFake.NeighborSessions(q))
		assertSameRecommendations(t, q, append([]ScoredItem(nil), ref.Recommend(q, 21)...), overFake.Recommend(q, 21))
	}
	if len(fake.taken) == 0 {
		t.Fatal("the walk took no postings through the fake")
	}
}

// TestReferenceEarlyStop: with early stopping on, the walk takes postings
// from a list only up to the first one older than its full sample; with it
// off, it takes the whole list; the answer is the same either way.
func TestReferenceEarlyStop(t *testing.T) {
	const hot, sessionsWithHot, m = 0, 50, 5
	rng := rand.New(rand.NewSource(2))
	lists := make([][]sessions.ItemID, sessionsWithHot)
	for i := range lists {
		lists[i] = []sessions.ItemID{hot, sessions.ItemID(1 + rng.Intn(20))}
	}
	idx := mustIndex(t, buildDataset(t, lists), 0)
	p := Params{M: m, K: 3}
	q := []sessions.ItemID{hot}

	early := newCountingSource(idx)
	want := mustReference(t, early, p, Walk{}).Recommend(q, 21)
	if got := early.taken[hot]; got != m+1 {
		t.Errorf("early stop on: took %d postings from a list of %d, want M+1 = %d", got, sessionsWithHot, m+1)
	}

	full := newCountingSource(idx)
	got := mustReference(t, full, p, Walk{DisableEarlyStopping: true}).Recommend(q, 21)
	if full.taken[hot] != sessionsWithHot {
		t.Errorf("early stop off: took %d postings, want all %d", full.taken[hot], sessionsWithHot)
	}
	if len(want) == 0 || !reflect.DeepEqual(want, got) {
		t.Errorf("early stopping changed the answer:\n%v\nvs\n%v", want, got)
	}
}
