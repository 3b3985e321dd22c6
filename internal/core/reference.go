package core

import (
	"fmt"
	"iter"

	"serenade/internal/dheap"
	"serenade/internal/sessions"
)

// Source is the storage Algorithm 2's recency walk reads, and only what it
// reads. *Index implements it; so do the paper's §7 alternatives — a
// varint-compressed index (internal/compressed) and a base index plus an
// append-only delta (internal/incremental) — which ReferenceRecommender
// therefore queries in place with the same walk.
type Source interface {
	// Capacity reports the posting-list truncation bound (0 = unbounded).
	Capacity() int
	// RecentSessions yields an item's posting list, most recent session
	// first, until the list ends or the walk stops ranging over it.
	RecentSessions(item sessions.ItemID) iter.Seq[sessions.SessionID]
	// Time returns the timestamp of a historical session.
	Time(s sessions.SessionID) int64
	// AppendSessionItems appends a historical session's distinct items to
	// dst and returns the extended slice.
	AppendSessionItems(dst []sessions.ItemID, s sessions.SessionID) []sessions.ItemID
	// IDF returns the weight log(|H|/h_i), 0 for an unseen item.
	IDF(item sessions.ItemID) float64
}

// Walk configures Algorithm 2's recency walk. The zero value is the paper's
// optimised walk: octonary heaps and early stopping. The VMIS-kNN-no-opt
// baseline of §5.1.3 is Walk{HeapArity: 2, DisableEarlyStopping: true}.
// Neither field changes the result, only the work done to reach it.
type Walk struct {
	// HeapArity is the branching factor of the recency and top-k heaps;
	// zero means 8.
	HeapArity int
	// DisableEarlyStopping keeps the walk on a posting list past the first
	// session older than every sampled one.
	DisableEarlyStopping bool
}

// ReferenceRecommender is the original map-based implementation of the
// VMIS-kNN query path — Algorithm 2's recency walk with a hashmap
// accumulator, a d-ary recency heap, eviction and early stopping — over any
// Source. It is the one copy of that walk: the differential-testing
// reference for the dense kernel in Recommender (the property tests prove
// both produce identical ranked output, including tie-breaks), the Fig. 3a
// no-opt baseline, and the executor for the compressed and incremental
// indexes. Recency is (time, id), neighbour ties break on (score, time, id)
// and output on (score desc, item asc), so same-second sessions resolve the
// same way on every path. Production paths should use Recommender.
//
// Like Recommender it reuses buffers across calls and is not safe for
// concurrent use; create one per goroutine with Clone.
type ReferenceRecommender struct {
	src Source
	p   Params
	w   Walk

	r       map[sessions.SessionID]refAccum
	dup     map[sessions.ItemID]struct{}
	bt      *dheap.Heap[recency]
	topk    *dheap.Bounded[Neighbor]
	scores  map[sessions.ItemID]float64
	itemBuf []sessions.ItemID
	outH    *dheap.Bounded[ScoredItem]
	outCap  int
}

// refAccum tracks the in-progress similarity for one candidate session in
// the temporary hashmap r of Algorithm 2.
type refAccum struct {
	score  float64
	maxPos int32
}

// recency is a recency-heap entry: a sampled session and its timestamp, so
// heap compares need not ask the source for times.
type recency struct {
	id   sessions.SessionID
	time int64
}

// NewReferenceRecommender validates the parameters and returns the
// map-based walk over src. An optional Walk configures the walk; without
// one it is the paper's optimised walk.
func NewReferenceRecommender(src Source, p Params, walk ...Walk) (*ReferenceRecommender, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if c := src.Capacity(); c > 0 && p.M > c {
		return nil, errMExceedsCapacity(p.M, c)
	}
	var w Walk
	switch len(walk) {
	case 0:
	case 1:
		w = walk[0]
	default:
		return nil, fmt.Errorf("core: %d walks given, want at most one", len(walk))
	}
	if w.HeapArity < 0 || w.HeapArity == 1 {
		return nil, errBadParam("HeapArity", w.HeapArity)
	}
	if w.HeapArity == 0 {
		w.HeapArity = 8
	}
	p = p.withDefaults()
	r := &ReferenceRecommender{
		src:    src,
		p:      p,
		w:      w,
		r:      make(map[sessions.SessionID]refAccum, p.M),
		dup:    make(map[sessions.ItemID]struct{}, p.MaxSessionLength),
		scores: make(map[sessions.ItemID]float64, 256),
	}
	r.bt = dheap.NewWithCapacity(w.HeapArity, p.M, olderThan)
	r.topk = dheap.NewBounded(w.HeapArity, p.K, neighborLess)
	return r, nil
}

// Clone returns an independent ReferenceRecommender over the same source,
// with the same parameters and walk, for use from another goroutine.
func (r *ReferenceRecommender) Clone() *ReferenceRecommender {
	c, err := NewReferenceRecommender(r.src, r.p, r.w)
	if err != nil {
		// The parameters and walk were validated when r was constructed.
		panic("core: Clone failed: " + err.Error())
	}
	return c
}

// olderThan orders sessions by recency, (time, id): the recency heap's order
// and the eviction test, pinned so that which of two same-second sessions
// survives does not depend on heap internals.
func olderThan(a, b recency) bool {
	return a.time < b.time || (a.time == b.time && a.id < b.id)
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
		pi := r.p.Decay(pos, length)

		for j := range r.src.RecentSessions(item) {
			if acc, ok := r.r[j]; ok {
				acc.score += pi
				r.r[j] = acc
				continue
			}
			e := recency{id: j, time: r.src.Time(j)}
			if len(r.r) < r.p.M {
				r.r[j] = refAccum{score: pi, maxPos: int32(pos)}
				r.bt.Push(e)
				continue
			}
			oldest, _ := r.bt.Peek()
			if olderThan(oldest, e) {
				delete(r.r, oldest.id)
				r.r[j] = refAccum{score: pi, maxPos: int32(pos)}
				r.bt.ReplaceRoot(e)
				continue
			}
			if !r.w.DisableEarlyStopping {
				// Every remaining session is older still; for a lazily
				// decoded source this also ends decoding the list.
				break
			}
		}
	}

	for j, acc := range r.r {
		r.topk.Offer(Neighbor{
			ID:     j,
			Score:  acc.score,
			MaxPos: int(acc.maxPos),
			Time:   r.src.Time(j),
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
		r.itemBuf = r.src.AppendSessionItems(r.itemBuf[:0], nb.ID)
		for _, item := range r.itemBuf {
			r.scores[item] += w * r.src.IDF(item)
		}
	}

	if r.outH == nil {
		r.outH = dheap.NewBounded(r.w.HeapArity, n, scoredItemLess)
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

// scoredItemLess orders output candidates weakest-first: lower score first;
// equal scores order the larger item id first so that DrainDescending yields
// ascending item ids within a tie.
func scoredItemLess(a, b ScoredItem) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}
