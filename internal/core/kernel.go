package core

import "serenade/internal/sessions"

// This file implements the dense data structures behind the zero-allocation
// VMIS-kNN query kernel (see DESIGN.md, "Dense scoring kernel"). The index
// hands out dense integer session and item identifiers, with session ids
// ascending in time, so the per-query temporaries of Algorithm 2 need none of
// the hashing, heaps and bucket chasing of the map-based reference:
//
//   - candidate selection is a k-way merge over the heads of the tail items'
//     posting lists, each sorted by descending session id: it emits the M
//     most recent distinct sessions of their union, each with its full
//     score, and touches nothing but the postings it consumes;
//   - the item score accumulator becomes a flat []float64 over the dense
//     item-id space with a touched-list for sparse O(hits) reset.

// postingHead is one distinct tail item's posting list in the candidate
// merge: the unconsumed suffix of the list (descending session id), the
// item's decay weight π and its 1-based position in the evolving session.
type postingHead struct {
	postings []sessions.SessionID
	pi       float64
	item     sessions.ItemID
	pos      int32
}

// postingHeadBytes is the in-memory size of a postingHead, for footprint
// accounting (a 24-byte slice header, 8 bytes of pi, 4+4 of item and pos).
const postingHeadBytes = 40

// mergeNeighbors appends to ns, most recent first, the at most m most recent
// distinct sessions in the union of the heads' posting lists, and consumes
// the heads. Each session's score sums π over the lists containing it in
// list order, and its MaxPos is the position of the first such list — the
// same float sums, in the same order, as Algorithm 2's candidate loop. That
// loop's result is exactly this set: an evicted or rejected session is older
// than every survivor, and a survivor is admitted at its first posting and
// never evicted, so it collects every contribution. Ids ascend with time, so
// "most recent" is "largest id", and timestamps are read only for the
// sessions that come out.
func mergeNeighbors(ns []Neighbor, heads []postingHead, m int, times []int64) []Neighbor {
	for len(ns) < m && len(heads) > 0 {
		best, id := 0, heads[0].postings[0]
		for i := 1; i < len(heads); i++ {
			if h := heads[i].postings[0]; h > id {
				best, id = i, h
			}
		}
		maxPos := heads[best].pos
		score := 0.0
		live := best
		for i := best; i < len(heads); i++ {
			h := &heads[i]
			if h.postings[0] == id {
				score += h.pi
				h.postings = h.postings[1:]
				if len(h.postings) == 0 {
					continue // exhausted: drop it, keeping list order
				}
			}
			if live != i {
				heads[live] = *h
			}
			live++
		}
		heads = heads[:live]
		ns = append(ns, Neighbor{ID: id, Score: score, MaxPos: int(maxPos), Time: times[id]})
	}
	return ns
}

// neighborBetter reports whether a ranks strictly before b in the descending
// neighbour order: higher similarity first, and the more recent session
// first on equal similarity (Algorithm 2 lines 37-38), recency meaning
// (time, id) so that same-second sessions order too. It is the same total
// order the reference path's bounded heap realises.
func neighborBetter(a, b Neighbor) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Time != b.Time {
		return a.Time > b.Time
	}
	return a.ID > b.ID
}

// selectTopNeighbors partially partitions ns so its first k elements are the
// k best under neighborBetter, in arbitrary order (quickselect with
// median-of-three pivots). The kernel uses it instead of a bounded heap:
// selecting k of m candidates costs O(m + k log k) comparisons through a
// direct (inlinable) comparison instead of O(m log k) through a heap's
// indirect less function, and the profile shows the top-k stage — not the
// intersection loop — dominates once the accumulators are dense.
func selectTopNeighbors(ns []Neighbor, k int) {
	lo, hi := 0, len(ns)-1
	for lo < hi {
		p := partitionNeighbors(ns, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// partitionNeighbors partitions ns[lo:hi+1] around a median-of-three pivot
// and returns the pivot's final index: everything before it ranks better,
// everything after it ranks no better.
func partitionNeighbors(ns []Neighbor, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if neighborBetter(ns[mid], ns[lo]) {
		ns[lo], ns[mid] = ns[mid], ns[lo]
	}
	if neighborBetter(ns[hi], ns[mid]) {
		ns[mid], ns[hi] = ns[hi], ns[mid]
		if neighborBetter(ns[mid], ns[lo]) {
			ns[lo], ns[mid] = ns[mid], ns[lo]
		}
	}
	// ns[mid] now holds the median of the three; use it as the pivot.
	ns[mid], ns[hi] = ns[hi], ns[mid]
	pivot := ns[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if neighborBetter(ns[j], pivot) {
			ns[i], ns[j] = ns[j], ns[i]
			i++
		}
	}
	ns[i], ns[hi] = ns[hi], ns[i]
	return i
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

// selectTopScoredItems is selectTopNeighbors for the output stage: it
// partially partitions out so its first n elements are the n best under
// scoredItemBetter. (Specialised rather than generic so the comparison
// inlines into the partition loop.)
func selectTopScoredItems(out []ScoredItem, n int) {
	lo, hi := 0, len(out)-1
	for lo < hi {
		p := partitionScoredItems(out, lo, hi)
		switch {
		case p == n-1:
			return
		case p < n-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partitionScoredItems(out []ScoredItem, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if scoredItemBetter(out[mid], out[lo]) {
		out[lo], out[mid] = out[mid], out[lo]
	}
	if scoredItemBetter(out[hi], out[mid]) {
		out[mid], out[hi] = out[hi], out[mid]
		if scoredItemBetter(out[mid], out[lo]) {
			out[lo], out[mid] = out[mid], out[lo]
		}
	}
	out[mid], out[hi] = out[hi], out[mid]
	pivot := out[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if scoredItemBetter(out[j], pivot) {
			out[i], out[j] = out[j], out[i]
			i++
		}
	}
	out[i], out[hi] = out[hi], out[i]
	return i
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
