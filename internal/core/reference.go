package core

import (
	"serenade/internal/dheap"
	"serenade/internal/sessions"
)

// ReferenceRecommender is the original map-based implementation of the
// VMIS-kNN query path — Algorithm 2's recency walk with a hashmap
// accumulator, a d-ary recency heap, eviction and early stopping — retained
// as the differential-testing and benchmarking reference for the dense
// kernel in Recommender: the property tests prove both produce identical
// ranked output (including tie-breaks), and the microbenchmarks quantify the
// kernel's win over it. Recency is (time, id) and neighbour ties break on
// (score, time, id), so same-second sessions resolve the same way on both
// paths. It is exported for tests and harnesses only — production paths
// should use Recommender.
//
// Like Recommender it reuses buffers across calls and is not safe for
// concurrent use.
type ReferenceRecommender struct {
	idx *Index
	p   Params

	r      map[sessions.SessionID]refAccum
	dup    map[sessions.ItemID]struct{}
	bt     *dheap.Heap[sessions.SessionID]
	topk   *dheap.Bounded[Neighbor]
	scores map[sessions.ItemID]float64
	outH   *dheap.Bounded[ScoredItem]
	outCap int
}

// refAccum tracks the in-progress similarity for one candidate session in
// the temporary hashmap r of Algorithm 2.
type refAccum struct {
	score  float64
	maxPos int32
}

// NewReferenceRecommender validates the parameters and returns the map-based
// reference query executor.
func NewReferenceRecommender(idx *Index, p Params) (*ReferenceRecommender, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if idx.capacity > 0 && p.M > idx.capacity {
		return nil, errMExceedsCapacity(p.M, idx.capacity)
	}
	p = p.withDefaults()
	r := &ReferenceRecommender{
		idx:    idx,
		p:      p,
		r:      make(map[sessions.SessionID]refAccum, p.M),
		dup:    make(map[sessions.ItemID]struct{}, p.MaxSessionLength),
		scores: make(map[sessions.ItemID]float64, 256),
	}
	r.bt = dheap.NewWithCapacity(p.HeapArity, p.M, r.olderThan)
	r.topk = dheap.NewBounded(p.HeapArity, p.K, neighborLess)
	return r, nil
}

// olderThan orders sessions by recency, (time, id): the recency heap's order
// and the eviction test, pinned so that which of two same-second sessions
// survives does not depend on heap internals.
func (r *ReferenceRecommender) olderThan(a, b sessions.SessionID) bool {
	ta, tb := r.idx.times[a], r.idx.times[b]
	return ta < tb || (ta == tb && a < b)
}

// neighborLess orders neighbours weakest-first for the bounded top-k heap:
// lower similarity orders first; equal similarities break ties toward the
// older session by (time, id), so the more recent session is retained, per
// Algorithm 2 lines 37-38.
func neighborLess(a, b Neighbor) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.ID < b.ID
}

// NeighborSessions computes the k most similar historical sessions using
// per-query hashmaps — semantics identical to Recommender.NeighborSessions.
func (r *ReferenceRecommender) NeighborSessions(evolving []sessions.ItemID) []Neighbor {
	s := evolving
	if len(s) > r.p.MaxSessionLength {
		s = s[len(s)-r.p.MaxSessionLength:]
	}
	length := len(s)

	clear(r.r)
	clear(r.dup)
	r.bt.Reset()
	r.topk.Reset()

	for pos := length; pos >= 1; pos-- {
		item := s[pos-1]
		if _, dup := r.dup[item]; dup {
			continue
		}
		r.dup[item] = struct{}{}
		postings := r.idx.Postings(item)
		if len(postings) == 0 {
			continue
		}
		pi := r.p.Decay(pos, length)

		for _, j := range postings {
			if acc, ok := r.r[j]; ok {
				acc.score += pi
				r.r[j] = acc
				continue
			}
			if len(r.r) < r.p.M {
				r.r[j] = refAccum{score: pi, maxPos: int32(pos)}
				r.bt.Push(j)
				continue
			}
			oldest, _ := r.bt.Peek()
			if r.olderThan(oldest, j) {
				delete(r.r, oldest)
				r.r[j] = refAccum{score: pi, maxPos: int32(pos)}
				r.bt.ReplaceRoot(j)
				continue
			}
			if !r.p.DisableEarlyStopping {
				break
			}
		}
	}

	for j, acc := range r.r {
		r.topk.Offer(Neighbor{
			ID:     j,
			Score:  acc.score,
			MaxPos: int(acc.maxPos),
			Time:   r.idx.times[j],
		})
	}
	return r.topk.DrainDescending()
}

// Recommend computes the top-n next-item recommendations using a hashmap
// score accumulator — semantics identical to Recommender.Recommend.
func (r *ReferenceRecommender) Recommend(evolving []sessions.ItemID, n int) []ScoredItem {
	if n <= 0 || len(evolving) == 0 {
		return nil
	}
	neighbors := r.NeighborSessions(evolving)
	if len(neighbors) == 0 {
		return nil
	}

	clear(r.scores)
	for _, nb := range neighbors {
		w := r.p.MatchWeight(nb.MaxPos) * nb.Score
		if w == 0 {
			continue
		}
		for _, item := range r.idx.SessionItems(nb.ID) {
			r.scores[item] += w * r.idx.idf[item]
		}
	}

	if r.outH == nil {
		r.outH = dheap.NewBounded(r.p.HeapArity, n, scoredItemLess)
		r.outCap = n
	} else if r.outCap != n {
		// Callers alternating n must not thrash the heap: reuse its
		// storage, growing only when the new bound exceeds it.
		r.outH.ResetWithCap(n)
		r.outCap = n
	} else {
		r.outH.Reset()
	}
	for item, score := range r.scores {
		if score > 0 {
			r.outH.Offer(ScoredItem{Item: item, Score: score})
		}
	}
	out := r.outH.DrainDescending()
	if len(out) == 0 {
		return nil
	}
	return out
}
