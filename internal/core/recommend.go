package core

import (
	"slices"

	"serenade/internal/dheap"
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
	// Time is the neighbour session's timestamp, used for tie-breaking.
	Time int64
}

type btEntry struct {
	id   sessions.SessionID
	time int64
}

// Recommender executes VMIS-kNN queries against an Index using the dense,
// epoch-stamped scoring kernel (see kernel.go): candidate accumulation runs
// in a fixed 2·M-slot probe table, item scoring in a flat array over the
// dense item-id space, and every per-query temporary is reused, so a
// steady-state query performs zero heap allocations. Per-Recommender memory
// is O(M + numItems) — independent of the number of indexed sessions.
//
// A Recommender reuses internal buffers across calls and is therefore NOT
// safe for concurrent use; create one per goroutine with Clone (the index
// itself is shared and immutable). The map-based original it replaced is
// retained as ReferenceRecommender for differential testing.
type Recommender struct {
	idx *Index
	p   Params

	tab    *probeTable       // candidate accumulator r of Algorithm 2
	seen   []sessions.ItemID // distinct evolving items (duplicate check)
	bt     *dheap.Heap[btEntry]
	nbrBuf []Neighbor
	acc    *itemAccumulator
	outBuf []ScoredItem
}

// NewRecommender validates the parameters and returns a query executor. Its
// kernel buffers are sized from the index (flat score array over the item-id
// space) and the parameters (2·M-slot probe table), so construct it — or
// Clone a prototype — per index generation.
func NewRecommender(idx *Index, p Params) (*Recommender, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if idx.capacity > 0 && p.M > idx.capacity {
		return nil, errMExceedsCapacity(p.M, idx.capacity)
	}
	p = p.withDefaults()
	r := &Recommender{
		idx:  idx,
		p:    p,
		tab:  newProbeTable(p.M),
		seen: make([]sessions.ItemID, 0, p.MaxSessionLength),
		acc:  newItemAccumulator(idx.numItems, p.Float32Scores),
	}
	r.bt = dheap.NewWithCapacity(p.HeapArity, p.M, func(a, b btEntry) bool { return a.time < b.time })
	return r, nil
}

// neighborLess orders neighbours weakest-first for the bounded top-k heap:
// lower similarity orders first; equal similarities break ties toward the
// older session (so the more recent session is retained), per Algorithm 2
// lines 37-38.
func neighborLess(a, b Neighbor) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Time < b.Time
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
// is O(M + numItems) by construction: the probe table and heaps scale with
// M/K, the flat score array with the item vocabulary, and nothing scales
// with the number of indexed sessions.
func (r *Recommender) MemoryFootprint() int64 {
	var b int64
	b += r.tab.footprint()
	b += r.acc.footprint()
	b += int64(cap(r.seen)) * 4
	b += int64(r.p.M) * 16         // bt heap storage: btEntry{id,time}
	b += int64(cap(r.nbrBuf)) * 32 // neighbour collect/result buffer (≤ M)
	b += int64(cap(r.outBuf)) * 16 // output collect/result buffer: ScoredItem
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

// seenBefore reports whether item already occurred (at a more recent
// position) in this query's intersection loop. A linear scan over at most
// MaxSessionLength entries beats any hashed structure at this size and
// allocates nothing.
func (r *Recommender) seenBefore(item sessions.ItemID) bool {
	for _, s := range r.seen {
		if s == item {
			return true
		}
	}
	return false
}

// resetCandidates clears the per-query candidate state (probe table, seen
// list, recency heap) ahead of an intersection loop.
func (r *Recommender) resetCandidates() {
	r.tab.reset()
	r.seen = r.seen[:0]
	r.bt.Reset()
}

// consumePosting applies one posting-list entry (candidate session j with a
// current item weight pi at evolving position pos) to the candidate
// accumulator — the loop body of Algorithm 2's intersection loop. It returns
// false when the caller must stop walking this posting list (early
// stopping): postings are sorted by descending timestamp, so once a session
// is rejected for being older than every current candidate, every remaining
// session in the list would be rejected too.
func (r *Recommender) consumePosting(j sessions.SessionID, pi float64, pos int) bool {
	if sl := r.tab.find(j); sl != nil {
		sl.score += pi
		return true
	}
	tj := r.idx.times[j]
	if r.tab.len() < r.p.M {
		r.tab.insert(j, pi, int32(pos))
		r.bt.Push(btEntry{id: j, time: tj})
		return true
	}
	oldest, _ := r.bt.Peek()
	if tj > oldest.time {
		// Evict the oldest candidate in favour of the more recent session
		// j. An evicted session can never re-enter: the recency heap's
		// minimum only grows.
		r.tab.delete(oldest.id)
		r.tab.insert(j, pi, int32(pos))
		r.bt.ReplaceRoot(btEntry{id: j, time: tj})
		return true
	}
	return r.p.DisableEarlyStopping
}

// NeighborSessions computes the k most similar historical sessions for the
// evolving session — the function neighbor_sessions_from_index of
// Algorithm 2. The returned slice is ordered most similar first and is
// valid until the next call on this Recommender.
func (r *Recommender) NeighborSessions(evolving []sessions.ItemID) []Neighbor {
	s := r.truncate(evolving)
	length := len(s)

	r.resetCandidates()

	// Item intersection loop: visit evolving-session items most recent
	// first so that the first candidate hit by a session records the most
	// recent shared item position, and so that duplicate items keep their
	// most recent position.
	for pos := length; pos >= 1; pos-- {
		item := s[pos-1]
		if r.seenBefore(item) {
			continue
		}
		r.seen = append(r.seen, item)
		postings := r.idx.Postings(item)
		if len(postings) == 0 {
			continue
		}
		pi := r.p.Decay(pos, length)

		for _, j := range postings {
			if !r.consumePosting(j, pi, pos) {
				break
			}
		}
	}

	return r.collectTopNeighbors()
}

// collectTopNeighbors runs the top-k similarity loop over a filled candidate
// table: one cache-friendly sweep over the probe table's 2·M slots stands in
// for iterating the temporary map r, then quickselect keeps the k best and a
// final sort orders them — the same total order the reference path's bounded
// heap produces, at a fraction of the comparisons (see selectTopNeighbors).
// The result aliases the reused neighbour buffer.
func (r *Recommender) collectTopNeighbors() []Neighbor {
	ns := r.nbrBuf[:0]
	for i := range r.tab.slots {
		sl := &r.tab.slots[i]
		if sl.stamp != r.tab.epoch {
			continue
		}
		ns = append(ns, Neighbor{
			ID:     sl.key,
			Score:  sl.score,
			MaxPos: int(sl.maxPos),
			Time:   r.idx.times[sl.key],
		})
	}
	r.nbrBuf = ns // retain grown storage for the next query
	if len(ns) > r.p.K {
		selectTopNeighbors(ns, r.p.K)
		ns = ns[:r.p.K]
	}
	slices.SortFunc(ns, func(a, b Neighbor) int {
		if neighborBetter(a, b) {
			return -1
		}
		if neighborBetter(b, a) {
			return 1
		}
		return 0
	})
	return ns
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
// ScoreNeighbors. The same validity rules apply: the result aliases reused
// buffers and holds until the next call on this Recommender.
func (r *Recommender) ScoreNeighbors(neighbors []Neighbor, n int) []ScoredItem {
	if n <= 0 || len(neighbors) == 0 {
		return nil
	}

	// Item scoring (Algorithm 2 line 6-7, with the §3 simplifications):
	// d_i = Σ_n 1_n(i) · λ(maxPos_n) · r_n · log(|H|/h_i), accumulated in
	// the flat array. Zero contributions (idf 0) are skipped — they cannot
	// change a score, and the accumulator needs first touches to be
	// strictly positive. The float32 mode duplicates the two-line loop body
	// rather than branching per contribution: the accumulator store is the
	// hot instruction here.
	if r.p.Float32Scores {
		for _, nb := range neighbors {
			w := r.p.MatchWeight(nb.MaxPos) * nb.Score
			if w == 0 {
				continue
			}
			for _, item := range r.idx.SessionItems(nb.ID) {
				if v := w * r.idx.idf[item]; v != 0 {
					r.acc.add32(item, v)
				}
			}
		}
	} else {
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
	}

	// Output stage: collect the touched positive scores into the reused
	// buffer, quickselect the n best, and sort them. The buffer is shared
	// across calls regardless of n, so callers alternating output lengths
	// (e.g. A/B arms sharing a pool) never reallocate output state.
	out := r.outBuf[:0]
	if r.p.Float32Scores {
		for _, item := range r.acc.touched {
			if score := r.acc.scores32[item]; score > 0 {
				out = append(out, ScoredItem{Item: item, Score: float64(score)})
			}
		}
	} else {
		for _, item := range r.acc.touched {
			if score := r.acc.scores[item]; score > 0 {
				out = append(out, ScoredItem{Item: item, Score: score})
			}
		}
	}
	r.acc.resetSparse()
	r.outBuf = out // retain grown storage for the next query
	if len(out) == 0 {
		return nil
	}
	if len(out) > n {
		selectTopScoredItems(out, n)
		out = out[:n]
	}
	slices.SortFunc(out, func(a, b ScoredItem) int {
		if scoredItemBetter(a, b) {
			return -1
		}
		if scoredItemBetter(b, a) {
			return 1
		}
		return 0
	})
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
