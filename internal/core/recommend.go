package core

import (
	"unsafe"

	"serenade/internal/sessions"
)

// Neighbor is one of the k historical sessions most similar to the evolving
// session.
type Neighbor struct {
	ID sessions.SessionID
	// Score is the decayed dot-product similarity r_n accumulated during
	// the item intersection loop.
	Score float64
	// MaxPos is the 1-based insertion position (within the truncated
	// evolving session) of the most recent item shared with this neighbour,
	// the argument of the match weight λ.
	MaxPos int
	// Time is the neighbour session's timestamp. Neighbours tie-break on
	// (time, id), which is id order because the index's times never
	// decrease in id; the kernel reads it only for the sessions it returns.
	Time int64
}

// Recommender executes VMIS-kNN queries against an Index using the dense
// scoring kernel (see kernel.go): candidate selection is a k-way merge over
// the tail items' posting lists followed by one counting pass for the top K,
// item scoring runs in a flat array over the dense item-id space, the top n
// is kept by bounded insertion, and every per-query temporary is reused, so
// a steady-state query performs zero heap allocations and no sort.
// Per-Recommender memory is O(M + 2^MaxSessionLength + numItems) —
// independent of the number of indexed sessions.
//
// A Recommender reuses internal buffers across calls and is therefore NOT
// safe for concurrent use; create one per goroutine with Clone (the index
// itself is shared and immutable). The map-based original it replaced is
// retained as ReferenceRecommender for differential testing.
type Recommender struct {
	idx *Index
	p   Params

	heads  []postingHead // one per distinct tail item, most recent first
	sel    *neighborSelector
	acc    *itemAccumulator
	outBuf []ScoredItem // the top n, best first
}

// NewRecommender validates the parameters and returns a query executor. Its
// kernel buffers are sized from the index (flat score array over the item-id
// space) and the parameters (M candidates, a mask table of
// 2^MaxSessionLength counters, K neighbours), so construct it — or Clone a
// prototype — per index generation.
func NewRecommender(idx *Index, p Params) (*Recommender, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if idx.capacity > 0 && p.M > idx.capacity {
		return nil, errMExceedsCapacity(p.M, idx.capacity)
	}
	p = p.withDefaults()
	return &Recommender{
		idx:   idx,
		p:     p,
		heads: make([]postingHead, 0, p.MaxSessionLength),
		sel:   newNeighborSelector(p.MaxSessionLength, p.M, p.K),
		acc:   newItemAccumulator(idx.numItems),
	}, nil
}

// Clone returns an independent Recommender sharing the same immutable index,
// for use from another goroutine. The clone gets fresh kernel buffers sized
// from the index, which is what the serving layer's per-generation pool
// relies on.
func (r *Recommender) Clone() *Recommender {
	c, err := NewRecommender(r.idx, r.p)
	if err != nil {
		// The parameters were validated when r was constructed.
		panic("core: Clone failed: " + err.Error())
	}
	return c
}

// Params returns the recommender's (defaulted) parameters.
func (r *Recommender) Params() Params { return r.p }

// Index returns the underlying index.
func (r *Recommender) Index() *Index { return r.idx }

// MemoryFootprint estimates the recommender's per-goroutine kernel buffer
// size in bytes — the Index.MemoryFootprint counterpart for query state. It
// is O(M + 2^MaxSessionLength + numItems) by construction: the candidate
// buffer scales with M, the mask table with the session cap, the neighbour
// output with K, the flat score array with the item vocabulary, and nothing
// with the number of indexed sessions.
func (r *Recommender) MemoryFootprint() int64 {
	var b int64
	b += r.acc.footprint()
	b += int64(cap(r.heads)) * int64(unsafe.Sizeof(postingHead{}))
	b += r.sel.footprint()
	b += int64(cap(r.outBuf)) * int64(unsafe.Sizeof(ScoredItem{}))
	return b
}

// truncate returns the most recent MaxSessionLength items of the evolving
// session.
func (r *Recommender) truncate(evolving []sessions.ItemID) []sessions.ItemID {
	if len(evolving) > r.p.MaxSessionLength {
		return evolving[len(evolving)-r.p.MaxSessionLength:]
	}
	return evolving
}

// NeighborSessions computes the k most similar historical sessions for the
// evolving session — the function neighbor_sessions_from_index of
// Algorithm 2. The returned slice is ordered most similar first and is
// valid until the next call on this Recommender.
//
// The candidate set is what Algorithm 2's recency walk keeps — the M most
// recent distinct sessions sharing an item with the truncated session — but
// it is found by merging the posting lists, so the query needs no candidate
// table, no recency heap and no eviction. The merge tags each candidate with
// the set of lists holding it, which fixes its score; one counting pass over
// those few distinct scores then places the k best, in the (score, time, id)
// order the reference's bounded heap realises, without a sort
// (neighborSelector.selectNeighbors).
func (r *Recommender) NeighborSessions(evolving []sessions.ItemID) []Neighbor {
	s := r.truncate(evolving)
	length := len(s)

	// One head per distinct item, most recent position first, so a
	// duplicate keeps its most recent position and list order is the order
	// Algorithm 2 visits the lists in. A linear duplicate scan over at most
	// MaxSessionLength heads beats any hashed structure at this size.
	// Items without postings contribute nothing and get no head; a repeat
	// of one has none either.
	heads := r.heads[:0]
items:
	for pos := length; pos >= 1; pos-- {
		item := s[pos-1]
		for i := range heads {
			if heads[i].item == item {
				continue items
			}
		}
		if postings := r.idx.Postings(item); len(postings) > 0 {
			heads = append(heads, postingHead{postings: postings, pi: r.p.Decay(pos, length), item: item, pos: int32(pos)})
		}
	}
	r.heads = heads

	return r.sel.selectNeighbors(heads, r.p.M, r.p.K, r.idx.times)
}

// Recommend computes the top-n next-item recommendations for the evolving
// session (most recent click last). The result is ordered by descending
// score with ties broken toward smaller item ids for determinism; it is
// valid until the next call on this Recommender.
func (r *Recommender) Recommend(evolving []sessions.ItemID, n int) []ScoredItem {
	if n <= 0 || len(evolving) == 0 {
		return nil
	}
	return r.ScoreNeighbors(r.NeighborSessions(evolving), n)
}

// ScoreNeighbors runs the scoring half of Recommend against an
// already-selected neighbour set. It is split out so the serving layer can
// attribute index lookup (NeighborSessions) and item scoring separately in
// per-request traces; Recommend is exactly NeighborSessions followed by
// ScoreNeighbors. It accumulates item scores in the flat array and keeps the
// n best by bounded insertion, ordered by descending score and then
// ascending item id, without a sort. The same validity rules apply: the
// result aliases reused buffers and holds until the next call on this
// Recommender.
func (r *Recommender) ScoreNeighbors(neighbors []Neighbor, n int) []ScoredItem {
	if n <= 0 || len(neighbors) == 0 {
		return nil
	}

	// Item scoring (Algorithm 2 line 6-7, with the §3 simplifications):
	// d_i = Σ_n 1_n(i) · λ(maxPos_n) · r_n · log(|H|/h_i), accumulated in
	// the flat array. Zero contributions (idf 0) are skipped — they cannot
	// change a score, and the accumulator needs first touches to be
	// strictly positive.
	for _, nb := range neighbors {
		w := r.p.MatchWeight(nb.MaxPos) * nb.Score
		if w == 0 {
			continue
		}
		for _, item := range r.idx.SessionItems(nb.ID) {
			if v := w * r.idx.idf[item]; v != 0 {
				r.acc.add(item, v)
			}
		}
	}

	// Output stage: keep the n best touched positive scores in the reused
	// buffer by bounded insertion — reject against the current n-th, shift
	// the rest into place. The buffer is shared across calls regardless of
	// n, so callers alternating output lengths (e.g. A/B arms sharing a
	// pool) never reallocate output state.
	out := r.outBuf[:0]
	for _, item := range r.acc.touched {
		score := r.acc.scores[item]
		if !(score > 0) {
			continue
		}
		it := ScoredItem{Item: item, Score: score}
		if len(out) == n {
			if !scoredItemBetter(it, out[n-1]) {
				continue
			}
			out = out[:n-1]
		}
		i := len(out)
		out = append(out, it)
		for ; i > 0 && scoredItemBetter(it, out[i-1]); i-- {
			out[i] = out[i-1]
		}
		out[i] = it
	}
	r.acc.resetSparse()
	r.outBuf = out // retain grown storage for the next query
	if len(out) == 0 {
		return nil
	}
	return out
}
