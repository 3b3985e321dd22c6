package core

import (
	"math/bits"
	"unsafe"

	"serenade/internal/sessions"
)

// This file implements the dense data structures behind the zero-allocation
// VMIS-kNN query kernel (see DESIGN.md, "Dense scoring kernel"). The index
// hands out dense integer session and item identifiers, with session ids
// ascending in time, so the per-query temporaries of Algorithm 2 need none of
// the hashing, heaps, sorts and bucket chasing of the map-based reference:
//
//   - candidate selection is a k-way merge over the heads of the tail items'
//     posting lists, each sorted by descending session id: it emits the M
//     most recent distinct sessions of their union, each with the set of
//     heads holding it, and touches nothing but the postings it consumes;
//   - a candidate's similarity depends only on that head set, so the top K
//     is one counting pass over the few distinct sets, in emission order;
//   - the item score accumulator becomes a flat []float64 over the dense
//     item-id space with a touched-list for sparse O(hits) reset, and the
//     top n is kept by bounded insertion.

// maxHeads caps Params.MaxSessionLength: the merge keeps one bit per
// distinct tail item in a head mask, and counts candidates in a table of
// 2^MaxSessionLength entries indexed by mask.
const maxHeads = 16

// postingHead is one distinct tail item's posting list in the candidate
// merge: the unconsumed suffix of the list (descending session id), the
// item's decay weight π and its 1-based position in the evolving session.
type postingHead struct {
	postings []sessions.SessionID
	pi       float64
	item     sessions.ItemID
	pos      int32
}

// candidate is one session the merge emits, with the set of heads, as bits
// in list order, whose posting lists hold it.
type candidate struct {
	id   sessions.SessionID
	mask uint32
}

// maskGroup is one distinct head mask among a query's candidates and the
// similarity they all share. The first group of a run of equal scores also
// holds the run's next free and end slots in the top K.
type maskGroup struct {
	score     float64
	mask      uint32
	next, end int32
}

// neighborSelector is the candidate-selection scratch of one Recommender.
// Every buffer is sized from the parameters at construction, so a query
// allocates nothing.
type neighborSelector struct {
	cur    []int64     // each head's current session id, −1 once exhausted
	cands  []candidate // the merge's ≤ M candidates, in emission order
	counts []int32     // per mask: its candidates, then its run's first group
	masks  []uint32    // the masks with a nonzero counts entry
	groups []maskGroup // one per distinct mask, by descending score
	top    []Neighbor  // the top K
}

func newNeighborSelector(maxLen, m, k int) *neighborSelector {
	distinct := min(m, 1<<maxLen-1)
	return &neighborSelector{
		cur:    make([]int64, maxLen),
		cands:  make([]candidate, 0, m),
		counts: make([]int32, 1<<maxLen),
		masks:  make([]uint32, 0, distinct),
		groups: make([]maskGroup, 0, distinct),
		top:    make([]Neighbor, k),
	}
}

// footprint reports the selector's in-memory size in bytes.
func (s *neighborSelector) footprint() int64 {
	return int64(len(s.cur))*8 +
		int64(cap(s.cands))*int64(unsafe.Sizeof(candidate{})) +
		int64(len(s.counts))*4 +
		int64(cap(s.masks))*4 +
		int64(cap(s.groups))*int64(unsafe.Sizeof(maskGroup{})) +
		int64(len(s.top))*int64(unsafe.Sizeof(Neighbor{}))
}

// selectNeighbors returns the k most similar of the at most m most recent
// distinct sessions in the union of the heads' posting lists, most similar
// first, and consumes the heads. The result aliases the selector's buffer.
//
// A session's similarity is the sum of π over the lists holding it, in list
// order, and its MaxPos is the position of the first such list: the same
// float sums, in the same order, as Algorithm 2's candidate loop. That
// loop's candidate set is exactly the merge's: an evicted or rejected
// session is older than every survivor, and a survivor is admitted at its
// first posting and never evicted, so it collects every contribution.
//
// Neighbours order by (score, time, id). The index guarantees that times
// never decrease in id, so that is (score, id), and within equal scores the
// merge's descending-id emission order is already the output order.
// Timestamps are read only for the ≤ k sessions returned.
func (s *neighborSelector) selectNeighbors(heads []postingHead, m, k int, times []int64) []Neighbor {
	s.merge(heads, m)
	k = min(k, len(s.cands))

	// Score each distinct mask, summing π in ascending bit order, and
	// insert its group by descending score. Scores start from +0.0, so
	// equal scores are bitwise equal.
	groups := s.groups[:0]
	for _, mask := range s.masks {
		g := maskGroup{mask: mask}
		for b := mask; b != 0; b &= b - 1 {
			g.score += heads[bits.TrailingZeros32(b)].pi
		}
		i := len(groups)
		groups = append(groups, g)
		for ; i > 0 && groups[i-1].score < g.score; i-- {
			groups[i] = groups[i-1]
		}
		groups[i] = g
	}
	s.groups = groups

	// Lay the runs of equal scores out in order, each one's end cut at k,
	// and point every mask at its run's first group.
	var off int32
	lead := 0
	for i := range groups {
		g := &groups[i]
		if i == 0 || g.score != groups[lead].score {
			lead = i
			g.next = off
		}
		off += s.counts[g.mask]
		groups[lead].end = min(off, int32(k))
		s.counts[g.mask] = int32(lead)
	}

	// Scatter the candidates, in emission order, into their runs' slots
	// until every slot below k is filled.
	top := s.top[:k]
	for i, filled := 0, 0; filled < k; i++ {
		c := s.cands[i]
		run := &groups[s.counts[c.mask]]
		if run.next < run.end {
			top[run.next] = Neighbor{
				ID:     c.id,
				Score:  run.score,
				MaxPos: int(heads[bits.TrailingZeros32(c.mask)].pos),
				Time:   times[c.id],
			}
			run.next++
			filled++
		}
	}
	for _, mask := range s.masks {
		s.counts[mask] = 0
	}
	return top
}

// merge fills s.cands with the at most m most recent distinct sessions in
// the union of the heads' posting lists, most recent first, each with its
// head mask, and counts them per mask. It consumes the heads.
func (s *neighborSelector) merge(heads []postingHead, m int) {
	cur := s.cur[:len(heads)]
	for i := range heads {
		cur[i] = int64(heads[i].postings[0])
	}
	cands, masks := s.cands[:0], s.masks[:0]
	for len(cands) < m {
		id := int64(-1)
		for _, c := range cur {
			id = max(id, c)
		}
		if id < 0 {
			break // every list is exhausted
		}
		var mask uint32
		for i, c := range cur {
			mask |= b2u(c == id) << i
		}
		for b := mask; b != 0; b &= b - 1 {
			i := bits.TrailingZeros32(b)
			h := &heads[i]
			h.postings = h.postings[1:]
			cur[i] = -1
			if len(h.postings) > 0 {
				cur[i] = int64(h.postings[0])
			}
		}
		if s.counts[mask] == 0 {
			masks = append(masks, mask)
		}
		s.counts[mask]++
		cands = append(cands, candidate{id: sessions.SessionID(id), mask: mask})
	}
	s.cands, s.masks = cands, masks
}

// b2u converts a comparison to a bit without a branch.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// scoredItemBetter reports whether a ranks strictly before b in the output
// order: higher score first, smaller item id first on ties (the
// deterministic order Recommend documents).
func scoredItemBetter(a, b ScoredItem) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Item < b.Item
}

// itemAccumulator is the flat item-scoring accumulator: a dense score array
// over the item-id space plus the list of touched items, so a query resets
// only what it wrote (O(distinct scored items), not O(numItems)).
type itemAccumulator struct {
	scores  []float64
	touched []sessions.ItemID
}

func newItemAccumulator(numItems int) *itemAccumulator {
	return &itemAccumulator{scores: make([]float64, numItems)}
}

// add accumulates a strictly positive contribution for an item. Zero
// contributions must be filtered by the caller: a zero score is how the
// accumulator recognises a first touch.
func (a *itemAccumulator) add(item sessions.ItemID, v float64) {
	if a.scores[item] == 0 {
		a.touched = append(a.touched, item)
	}
	a.scores[item] += v
}

// resetSparse zeroes exactly the entries written since the last reset.
func (a *itemAccumulator) resetSparse() {
	for _, item := range a.touched {
		a.scores[item] = 0
	}
	a.touched = a.touched[:0]
}

// footprint reports the accumulator's in-memory size in bytes.
func (a *itemAccumulator) footprint() int64 {
	return int64(len(a.scores))*8 + int64(cap(a.touched))*4
}
