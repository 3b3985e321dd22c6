package incremental

import (
	"math"

	"serenade/internal/core"
	"serenade/internal/dheap"
	"serenade/internal/sessions"
)

func logf(x float64) float64 { return math.Log(x) }

// Recommender executes VMIS-kNN over the incrementally maintained index.
// Each query runs under the index's read lock, so appends and compactions
// interleave safely with queries. A Recommender reuses buffers and is not
// safe for concurrent use itself; create one per goroutine with Clone.
type Recommender struct {
	x *Index
	p core.Params

	r      map[sessions.SessionID]accum
	dup    map[sessions.ItemID]struct{}
	bt     *dheap.Heap[btEntry]
	topk   *dheap.Bounded[core.Neighbor]
	scores map[sessions.ItemID]float64
	outH   *dheap.Bounded[core.ScoredItem]
	outCap int
}

type accum struct {
	score  float64
	maxPos int32
}

type btEntry struct {
	id   sessions.SessionID
	time int64
}

// olderThan orders recency-heap entries by (time, id), the order core pins
// so that which of two same-second sessions survives eviction does not
// depend on heap internals.
func olderThan(a, b btEntry) bool {
	return a.time < b.time || (a.time == b.time && a.id < b.id)
}

// NewRecommender validates parameters against the index capacity.
func NewRecommender(x *Index, p core.Params) (*Recommender, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if x.capacity > 0 && p.M > x.capacity {
		return nil, errMExceedsCapacity(p.M, x.capacity)
	}
	p = withDefaults(p)
	r := &Recommender{
		x:      x,
		p:      p,
		r:      make(map[sessions.SessionID]accum, p.M),
		dup:    make(map[sessions.ItemID]struct{}, p.MaxSessionLength),
		scores: make(map[sessions.ItemID]float64, 256),
	}
	r.bt = dheap.NewWithCapacity(p.HeapArity, p.M, olderThan)
	r.topk = dheap.NewBounded(p.HeapArity, p.K, neighborLess)
	return r, nil
}

func withDefaults(p core.Params) core.Params {
	if p.MaxSessionLength <= 0 {
		p.MaxSessionLength = core.DefaultMaxSessionLength
	}
	if p.Decay == nil {
		p.Decay = core.LinearDecay
	}
	if p.MatchWeight == nil {
		p.MatchWeight = core.LinearMatchWeight
	}
	if p.HeapArity == 0 {
		p.HeapArity = 8
	}
	return p
}

// neighborLess orders neighbours weakest-first by (score, time, id), the
// tie order core pins.
func neighborLess(a, b core.Neighbor) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.ID < b.ID
}

// Clone returns an independent Recommender over the same index.
func (r *Recommender) Clone() *Recommender {
	c, err := NewRecommender(r.x, r.p)
	if err != nil {
		panic("incremental: Clone failed: " + err.Error())
	}
	return c
}

// NeighborSessions computes the k most similar historical sessions,
// spanning both the base index and the delta.
func (r *Recommender) NeighborSessions(evolving []sessions.ItemID) []core.Neighbor {
	r.x.mu.RLock()
	defer r.x.mu.RUnlock()
	return r.neighborSessionsLocked(evolving)
}

func (r *Recommender) neighborSessionsLocked(evolving []sessions.ItemID) []core.Neighbor {
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
		pi := r.p.Decay(pos, length)

		// process consumes one candidate session; it reports whether the
		// posting traversal should continue (false = early stop: every
		// remaining session is at least as old).
		process := func(j sessions.SessionID) bool {
			if acc, ok := r.r[j]; ok {
				acc.score += pi
				r.r[j] = acc
				return true
			}
			tj := r.x.timeOf(j)
			if len(r.r) < r.p.M {
				r.r[j] = accum{score: pi, maxPos: int32(pos)}
				r.bt.Push(btEntry{id: j, time: tj})
				return true
			}
			oldest, _ := r.bt.Peek()
			if olderThan(oldest, btEntry{id: j, time: tj}) {
				delete(r.r, oldest.id)
				r.r[j] = accum{score: pi, maxPos: int32(pos)}
				r.bt.ReplaceRoot(btEntry{id: j, time: tj})
				return true
			}
			return r.p.DisableEarlyStopping
		}

		// Delta sessions are all newer than base sessions, and the delta
		// posting list ascends in time — so "delta reversed, then base"
		// is exactly the descending-recency posting order of a rebuild.
		delta := r.x.deltaPost[item]
		stopped := false
		for di := len(delta) - 1; di >= 0; di-- {
			if !process(delta[di]) {
				stopped = true
				break
			}
		}
		if stopped {
			continue
		}
		for _, j := range r.x.base.Postings(item) {
			if !process(j) {
				break
			}
		}
	}

	for j, acc := range r.r {
		r.topk.Offer(core.Neighbor{
			ID:     j,
			Score:  acc.score,
			MaxPos: int(acc.maxPos),
			Time:   r.x.timeOf(j),
		})
	}
	return r.topk.DrainDescending()
}

// Recommend computes the top-n next-item recommendations.
func (r *Recommender) Recommend(evolving []sessions.ItemID, n int) []core.ScoredItem {
	if n <= 0 || len(evolving) == 0 {
		return nil
	}
	r.x.mu.RLock()
	defer r.x.mu.RUnlock()
	neighbors := r.neighborSessionsLocked(evolving)
	if len(neighbors) == 0 {
		return nil
	}
	clear(r.scores)
	for _, nb := range neighbors {
		w := r.p.MatchWeight(nb.MaxPos) * nb.Score
		if w == 0 {
			continue
		}
		for _, item := range r.x.itemsOf(nb.ID) {
			r.scores[item] += w * r.x.idf(item)
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
			r.outH.Offer(core.ScoredItem{Item: item, Score: score})
		}
	}
	out := r.outH.DrainDescending()
	if len(out) == 0 {
		return nil
	}
	return out
}

func scoredItemLess(a, b core.ScoredItem) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}
