package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"serenade/internal/sessions"
	"serenade/internal/synth"
)

// TestRecommendInvariantsProperty checks the output contract on random
// datasets and queries: at most n results, strictly positive scores,
// descending order with deterministic tie-breaks, no duplicate items, and
// never the full-idf-zero degenerate cases.
func TestRecommendInvariantsProperty(t *testing.T) {
	prop := func(seed int64, mSeed, kSeed, nSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 100+rng.Intn(200), 20+rng.Intn(40))
		idx, err := BuildIndex(ds, 0)
		if err != nil {
			return false
		}
		m := int(mSeed)%50 + 1
		k := int(kSeed)%m + 1
		n := int(nSeed)%30 + 1
		rec, err := NewRecommender(idx, Params{M: m, K: k})
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			q := randomEvolving(rng, 60)
			out := rec.Recommend(q, n)
			if len(out) > n {
				return false
			}
			seen := map[sessions.ItemID]struct{}{}
			for i, s := range out {
				if s.Score <= 0 || math.IsNaN(s.Score) || math.IsInf(s.Score, 0) {
					return false
				}
				if _, dup := seen[s.Item]; dup {
					return false
				}
				seen[s.Item] = struct{}{}
				if i > 0 {
					prev := out[i-1]
					if s.Score > prev.Score {
						return false
					}
					if s.Score == prev.Score && s.Item < prev.Item {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestNeighborInvariantsProperty: at most k neighbours, all with positive
// similarity, valid session ids and match positions inside the truncated
// window.
func TestNeighborInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 150, 30)
		idx, err := BuildIndex(ds, 0)
		if err != nil {
			return false
		}
		rec, err := NewRecommender(idx, Params{M: 20, K: 7})
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			q := randomEvolving(rng, 40)
			ns := rec.NeighborSessions(q)
			if len(ns) > 7 {
				return false
			}
			window := len(q)
			if window > DefaultMaxSessionLength {
				window = DefaultMaxSessionLength
			}
			for i, nb := range ns {
				if nb.Score <= 0 || int(nb.ID) >= idx.NumSessions() {
					return false
				}
				if nb.MaxPos < 1 || nb.MaxPos > window {
					return false
				}
				if nb.Time != idx.Time(nb.ID) {
					return false
				}
				if i > 0 && nb.Score > ns[i-1].Score {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// assertSameRecommendations fails unless the dense kernel and the map-based
// reference produced the same ranked output: identical items in identical
// (tie-break) order, bitwise-identical scores.
func assertSameRecommendations(t *testing.T, q []sessions.ItemID, dense, ref []ScoredItem) {
	t.Helper()
	if len(dense) != len(ref) {
		t.Fatalf("query %v: dense kernel returned %d items, reference %d\ndense: %v\nref:   %v",
			q, len(dense), len(ref), dense, ref)
	}
	for i := range dense {
		if dense[i].Item != ref[i].Item {
			t.Fatalf("query %v: rank %d is item %d (dense) vs %d (reference)",
				q, i, dense[i].Item, ref[i].Item)
		}
		if dense[i].Score != ref[i].Score {
			t.Fatalf("query %v: item %d scored %v (dense) vs %v (reference)",
				q, dense[i].Item, dense[i].Score, ref[i].Score)
		}
	}
}

// assertSameNeighbors fails unless both implementations agreed on the
// neighbour list: ids, match positions, timestamps, order and (bitwise)
// similarities identical.
func assertSameNeighbors(t *testing.T, q []sessions.ItemID, dense, ref []Neighbor) {
	t.Helper()
	if len(dense) != len(ref) {
		t.Fatalf("query %v: dense kernel found %d neighbours, reference %d\ndense: %v\nref:   %v",
			q, len(dense), len(ref), dense, ref)
	}
	for i := range dense {
		d, r := dense[i], ref[i]
		if d.ID != r.ID || d.MaxPos != r.MaxPos || d.Time != r.Time {
			t.Fatalf("query %v: neighbour %d is %+v (dense) vs %+v (reference)", q, i, d, r)
		}
		if d.Score != r.Score {
			t.Fatalf("query %v: session %d similarity %v (dense) vs %v (reference)",
				q, d.ID, d.Score, r.Score)
		}
	}
}

// TestDenseKernelMatchesReferenceProperty is the differential property test
// for the zero-allocation kernel: over randomized datasets, parameters and
// queries — with M small enough to force recency eviction, with and without
// early stopping, and with alternating output lengths n exercising the
// grow-and-reuse output heap — the dense kernel must return exactly what the
// retained map-based implementation returns. Timestamps are strictly
// increasing per dataset, so only score ties can occur;
// TestDenseKernelMatchesReferenceTiedTimes covers equal timestamps.
func TestDenseKernelMatchesReferenceProperty(t *testing.T) {
	checkKernelMatchesReference(t, randomDataset)
}

// TestDenseKernelMatchesReferenceTiedTimes is the differential property test
// on coarse timestamps: many sessions share a second, so the reference's
// recency heap and eviction see equal times on nearly every comparison and
// neighbour similarities tie on (score, time). The (time, id) recency pin
// must make the walk and the merge pick the same sessions, and the
// (score, time, id) neighbour pin the same top k.
func TestDenseKernelMatchesReferenceTiedTimes(t *testing.T) {
	checkKernelMatchesReference(t, tiedDataset)
}

func checkKernelMatchesReference(t *testing.T, gen func(*rand.Rand, int, int) *sessions.Dataset) {
	t.Helper()
	prop := func(seed int64, mSeed, kSeed, nSeed uint8, noEarlyStop bool) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := gen(rng, 100+rng.Intn(300), 10+rng.Intn(40))
		idx, err := BuildIndex(ds, 0)
		if err != nil {
			return false
		}
		// Small M relative to the dataset keeps the reference's recency
		// heap full, so its eviction path runs constantly.
		m := int(mSeed)%25 + 1
		k := int(kSeed)%m + 1
		n := int(nSeed)%30 + 1
		p := Params{M: m, K: k}
		dense, err := NewRecommender(idx, p)
		if err != nil {
			return false
		}
		ref, err := NewReferenceRecommender(idx, p, Walk{DisableEarlyStopping: noEarlyStop})
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			q := randomEvolving(rng, 50)
			assertSameNeighbors(t,
				q,
				append([]Neighbor(nil), dense.NeighborSessions(q)...),
				ref.NeighborSessions(q))
			// Alternate n so the reused output heap shrinks and grows.
			trialN := n
			if trial%2 == 1 {
				trialN = n%7 + 1
			}
			assertSameRecommendations(t,
				q,
				append([]ScoredItem(nil), dense.Recommend(q, trialN)...),
				ref.Recommend(q, trialN))
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDenseKernelEvictionChurn pins the hardest kernel edge case directly:
// every historical session shares one hot item, M is tiny, and queries hit
// that item, so nearly every posting either evicts or early-stops. The
// kernel and reference must still agree, with early stopping on and off.
func TestDenseKernelEvictionChurn(t *testing.T) {
	const hot = 0
	var lists [][]sessions.ItemID
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 120; i++ {
		s := []sessions.ItemID{hot}
		for j := 0; j < 1+rng.Intn(4); j++ {
			s = append(s, sessions.ItemID(1+rng.Intn(30)))
		}
		lists = append(lists, s)
	}
	idx := mustIndex(t, buildDataset(t, lists), 0)
	for _, noEarlyStop := range []bool{false, true} {
		p := Params{M: 3, K: 3}
		dense := mustRecommender(t, idx, p)
		ref, err := NewReferenceRecommender(idx, p, Walk{DisableEarlyStopping: noEarlyStop})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			q := []sessions.ItemID{sessions.ItemID(1 + rng.Intn(30)), hot}
			if trial%3 == 0 {
				q = append(q, sessions.ItemID(1+rng.Intn(30)))
			}
			assertSameNeighbors(t, q,
				append([]Neighbor(nil), dense.NeighborSessions(q)...),
				ref.NeighborSessions(q))
			assertSameRecommendations(t, q,
				append([]ScoredItem(nil), dense.Recommend(q, 10)...),
				ref.Recommend(q, 10))
		}
	}
}

// TestMonotoneMProperty: growing the recency sample can only widen the
// candidate set — every neighbour found with a smaller m must score at
// least as high with a larger m (its accumulated similarity cannot shrink).
func TestMonotoneMProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ds := randomDataset(rng, 250, 40)
	idx, err := BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := NewRecommender(idx, Params{M: 10, K: 10})
	large, _ := NewRecommender(idx, Params{M: 100, K: 100})
	for trial := 0; trial < 100; trial++ {
		q := randomEvolving(rng, 40)
		smallNs := append([]Neighbor(nil), small.NeighborSessions(q)...)
		largeNs := large.NeighborSessions(q)
		byID := map[sessions.SessionID]float64{}
		for _, nb := range largeNs {
			byID[nb.ID] = nb.Score
		}
		for _, nb := range smallNs {
			if ls, ok := byID[nb.ID]; ok && ls < nb.Score-1e-12 {
				t.Fatalf("session %d scored %v with m=10 but %v with m=100", nb.ID, nb.Score, ls)
			}
		}
	}
}

// tiedDataset is randomDataset on one-"second" resolution: sessions arrive a
// few per tick, so runs of sessions share a timestamp, and within a session
// every click shares it too.
func tiedDataset(rng *rand.Rand, n, vocab int) *sessions.Dataset {
	var ss []sessions.Session
	tick := int64(1000)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			tick++
		}
		length := 2 + rng.Intn(6)
		items := make([]sessions.ItemID, length)
		times := make([]int64, length)
		for j := range items {
			items[j] = sessions.ItemID(rng.Intn(vocab))
			times[j] = tick
		}
		ss = append(ss, sessions.Session{ID: sessions.SessionID(i), Items: items, Times: times})
	}
	return sessions.FromSessions("tied", ss)
}

// TestKernelMatchesReferenceOnSynthData is the bitwise differential on
// click-log-shaped data: a synth profile dense enough that many sessions
// share a one-second timestamp, queried with every prefix of 400 held-out
// sessions and with 100 long tails over the most frequent items (nine
// capped posting lists per query). Kernel and reference, with early
// stopping on and off, must return identical neighbours and top-n.
func TestKernelMatchesReferenceOnSynthData(t *testing.T) {
	idx, queries := synthDifferential(t)
	kernel := mustRecommender(t, idx, Params{M: 500, K: 100})
	for _, noEarlyStop := range []bool{false, true} {
		ref, err := NewReferenceRecommender(idx, Params{M: 500, K: 100}, Walk{DisableEarlyStopping: noEarlyStop})
		if err != nil {
			t.Fatal(err)
		}
		checkSameOnQueries(t, kernel, ref, queries)
	}
}

// TestKernelMatchesReferenceCoincidingScores is the synth differential
// with a decay whose π takes three values, all multiples of 0.25: most
// candidates tie on score even across different sets of tail items, so
// the counting top K's runs of equal scores span many head masks, and the
// K boundary usually falls inside one. K covers 1, 100 and M.
func TestKernelMatchesReferenceCoincidingScores(t *testing.T) {
	idx, queries := synthDifferential(t)
	decay := func(pos, _ int) float64 { return float64(pos%3+1) * 0.25 }
	for _, k := range []int{1, 100, 500} {
		p := Params{M: 500, K: k, Decay: decay}
		ref, err := NewReferenceRecommender(idx, p)
		if err != nil {
			t.Fatal(err)
		}
		checkSameOnQueries(t, mustRecommender(t, idx, p), ref, queries)
	}
}

// synthDifferential builds the synth index and queries of the bitwise
// differentials on click-log-shaped data: a profile dense enough that many
// sessions share a one-second timestamp, every prefix of 400 held-out
// sessions, and 100 long tails over the most frequent items (nine capped
// posting lists per query).
func synthDifferential(t *testing.T) (*Index, [][]sessions.ItemID) {
	t.Helper()
	cfg := synth.Small(401)
	cfg.NumSessions, cfg.NumItems, cfg.Days = 12_000, 2_000, 4
	full, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split := sessions.TemporalSplit(full, 1)
	idx := mustIndex(t, sessions.Renumber(split.Train), 500)

	var queries [][]sessions.ItemID
	for _, s := range split.Test.Sessions[:400] {
		for end := 1; end <= len(s.Items); end++ {
			queries = append(queries, s.Items[:end])
		}
	}
	return idx, append(queries, hotTails(idx, 100, 402)...)
}

// checkSameOnQueries asserts kernel and reference return identical
// neighbours and top-21 on every query.
func checkSameOnQueries(t *testing.T, kernel *Recommender, ref *ReferenceRecommender, queries [][]sessions.ItemID) {
	t.Helper()
	for _, q := range queries {
		assertSameNeighbors(t, q,
			append([]Neighbor(nil), kernel.NeighborSessions(q)...),
			ref.NeighborSessions(q))
		assertSameRecommendations(t, q,
			append([]ScoredItem(nil), kernel.Recommend(q, 21)...),
			ref.Recommend(q, 21))
	}
}
