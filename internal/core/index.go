package core

import (
	"fmt"
	"math"
	"sync"

	"serenade/internal/sessions"
)

// Index is the VMIS-kNN session similarity index (M, t) of §3:
//
//   - a posting list M mapping each item to the identifiers of the most
//     recent historical sessions containing it, in descending session
//     timestamp order and truncated to the index capacity, giving amortised
//     constant-time access to the m most recent sessions per item;
//   - a dense timestamp array t giving constant-time random access to the
//     timestamp of any historical session;
//   - the per-session item sets needed to score the items of neighbour
//     sessions, and the precomputed inverse document frequencies
//     log(|H|/h_i) used as item weights.
//
// Historical session identifiers are consecutive integers assigned in
// ascending timestamp order (see sessions.Renumber), so a session id doubles
// as an index into the timestamp array and ordering by id equals ordering by
// recency. An Index is immutable after construction and safe for concurrent
// readers.
//
// The variable-length collections (posting lists, per-session item sets) are
// stored in CSR (compressed sparse row) form: one flat data array per
// collection plus an offsets array, instead of a slice per item/session. At
// production scale the slice-of-slices layout is hundreds of millions of
// separately allocated objects the garbage collector must scan on every
// cycle; the CSR arena is seven pointers regardless of index size, and it is
// exactly the shape the on-disk format v2 maps into memory (see
// internal/index), so a file-backed index reads straight out of the mapping.
type Index struct {
	numSessions int
	numItems    int
	capacity    int

	times []int64
	// postingOffsets has numItems+1 entries; item i's posting list is
	// postingData[postingOffsets[i]:postingOffsets[i+1]].
	postingOffsets []uint32
	postingData    []sessions.SessionID
	// sessionItemOffsets has numSessions+1 entries; session s's distinct
	// items are sessionItemData[sessionItemOffsets[s]:sessionItemOffsets[s+1]].
	sessionItemOffsets []uint32
	sessionItemData    []sessions.ItemID
	df                 []int32
	idf                []float64

	// Arena backing (set by the index package loaders): when arenaBytes is
	// non-zero every CSR array above is a view into one contiguous region of
	// that many bytes — an mmap(2) region when mapped is true, a single heap
	// allocation otherwise.
	arenaBytes int64
	mapped     bool
	closeOnce  sync.Once
	closeFn    func() error
	closeErr   error
	closed     bool
}

// CSR is the flat-arena view of an index: the seven dense arrays that fully
// describe it. All slices are read-only; for a file-backed index they alias
// the underlying mapping and are valid only while the index is open.
type CSR struct {
	Times              []int64
	PostingOffsets     []uint32
	PostingData        []sessions.SessionID
	SessionItemOffsets []uint32
	SessionItemData    []sessions.ItemID
	DF                 []int32
	// IDF may be nil when constructing (NewIndexFromCSR recomputes it);
	// CSR() always returns it populated.
	IDF []float64
}

// Arena describes the backing storage of a CSR view handed to
// NewIndexFromCSR: Bytes is the size of the contiguous region the slices
// alias (0 when they are ordinary heap slices), Mapped marks an mmap(2)
// region, and Close releases it (invoked at most once, by Index.Close).
type Arena struct {
	Bytes  int64
	Mapped bool
	Close  func() error
}

// checkEpoch returns the next per-session epoch for the build scratch array,
// wiping the array on the (practically unreachable) uint32 wraparound so a
// stale stamp can never collide with a restarted epoch sequence.
func nextEpoch(epoch uint32, seen []uint32) uint32 {
	epoch++
	if epoch == 0 {
		clear(seen)
		epoch = 1
	}
	return epoch
}

// BuildIndex constructs the index from a dataset whose session ids are
// dense and ascend with session timestamp (use sessions.Renumber first).
// capacity bounds the posting list length per item — it must be at least the
// largest sample size m that will be queried; capacity <= 0 keeps complete
// posting lists.
//
// The build is two passes over the click log straight into the CSR arena:
// pass one counts distinct items per session and sessions per item (the
// document frequencies, which size the arrays exactly), pass two scatters
// each occurrence into its final slot. Per-session item deduplication uses
// an epoch-stamped scratch array over the item vocabulary — the same trick
// as the query kernel's accumulators — so the build allocates nothing per
// session and touches no hash buckets.
func BuildIndex(ds *sessions.Dataset, capacity int) (*Index, error) {
	n := len(ds.Sessions)
	for i := range ds.Sessions {
		if ds.Sessions[i].ID != sessions.SessionID(i) {
			return nil, fmt.Errorf("core: session ids must be dense, got %d at position %d (renumber the dataset first)", ds.Sessions[i].ID, i)
		}
		if i > 0 && ds.Sessions[i].Time() < ds.Sessions[i-1].Time() {
			return nil, fmt.Errorf("core: session %d is older than its predecessor (renumber the dataset first)", i)
		}
	}

	times := make([]int64, n)
	df := make([]int32, ds.NumItems)
	sessionItemOffsets := make([]uint32, n+1)
	seen := make([]uint32, ds.NumItems)
	var epoch uint32

	// Pass 1: count distinct items per session and sessions per item.
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		times[i] = s.Time()
		epoch = nextEpoch(epoch, seen)
		distinct := uint32(0)
		for _, it := range s.Items {
			if seen[it] == epoch {
				continue
			}
			seen[it] = epoch
			distinct++
			df[it]++
		}
		sessionItemOffsets[i+1] = sessionItemOffsets[i] + distinct
	}

	postingOffsets := make([]uint32, ds.NumItems+1)
	var totalPostings uint64
	for item, f := range df {
		kept := uint64(f)
		if capacity > 0 && kept > uint64(capacity) {
			kept = uint64(capacity)
		}
		totalPostings += kept
		if totalPostings > math.MaxUint32 {
			return nil, fmt.Errorf("core: posting arena exceeds 2^32 entries at item %d", item)
		}
		postingOffsets[item+1] = uint32(totalPostings)
	}

	postingData := make([]sessions.SessionID, totalPostings)
	sessionItemData := make([]sessions.ItemID, sessionItemOffsets[n])
	// occ counts, per item, the ascending-time occurrences placed so far;
	// occurrence o of df total lands at descending rank df-1-o, and only
	// ranks below the kept (truncated) length have a slot.
	occ := make([]uint32, ds.NumItems)

	// Pass 2: scatter. Sessions arrive oldest first, so the most recent
	// occurrence has descending rank 0 and posting lists come out in
	// descending timestamp order with no reversal step.
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		epoch = nextEpoch(epoch, seen)
		w := sessionItemOffsets[i]
		for _, it := range s.Items {
			if seen[it] == epoch {
				continue
			}
			seen[it] = epoch
			sessionItemData[w] = it
			w++
			rank := uint32(df[it]) - 1 - occ[it]
			occ[it]++
			if kept := postingOffsets[it+1] - postingOffsets[it]; rank < kept {
				postingData[postingOffsets[it]+rank] = sessions.SessionID(i)
			}
		}
	}

	idx := &Index{
		numSessions:        n,
		numItems:           ds.NumItems,
		capacity:           capacity,
		times:              times,
		postingOffsets:     postingOffsets,
		postingData:        postingData,
		sessionItemOffsets: sessionItemOffsets,
		sessionItemData:    sessionItemData,
		df:                 df,
		idf:                make([]float64, ds.NumItems),
	}
	idx.computeIDF()
	return idx, nil
}

// NewIndexFromParts assembles an index from per-list slices (the layout the
// dataflow build job produces), flattening them into
// the CSR arena and recomputing the derived inverse document frequencies. It
// validates the structural invariants that Recommend relies on.
func NewIndexFromParts(times []int64, postings [][]sessions.SessionID, sessionItems [][]sessions.ItemID, df []int32, capacity int) (*Index, error) {
	if len(postings) != len(df) {
		return nil, fmt.Errorf("core: postings (%d) and document frequencies (%d) disagree on item count", len(postings), len(df))
	}
	if len(times) != len(sessionItems) {
		return nil, fmt.Errorf("core: timestamps (%d) and session items (%d) disagree on session count", len(times), len(sessionItems))
	}
	c := CSR{
		Times:              times,
		PostingOffsets:     make([]uint32, len(postings)+1),
		SessionItemOffsets: make([]uint32, len(times)+1),
		DF:                 df,
	}
	var total uint64
	for i, list := range postings {
		total += uint64(len(list))
		if total > math.MaxUint32 {
			return nil, fmt.Errorf("core: posting arena exceeds 2^32 entries at item %d", i)
		}
		c.PostingOffsets[i+1] = uint32(total)
	}
	c.PostingData = make([]sessions.SessionID, 0, total)
	for _, list := range postings {
		c.PostingData = append(c.PostingData, list...)
	}
	total = 0
	for s, list := range sessionItems {
		total += uint64(len(list))
		if total > math.MaxUint32 {
			return nil, fmt.Errorf("core: session-item arena exceeds 2^32 entries at session %d", s)
		}
		c.SessionItemOffsets[s+1] = uint32(total)
	}
	c.SessionItemData = make([]sessions.ItemID, 0, total)
	for _, list := range sessionItems {
		c.SessionItemData = append(c.SessionItemData, list...)
	}
	return NewIndexFromCSR(c, capacity, Arena{})
}

// NewIndexFromCSR assembles an index directly from its flat-arena form — the
// zero-copy constructor behind the v2 file format: the slices may alias an
// mmap region described by arena, and nothing is copied. It validates every
// structural invariant Recommend relies on (offset monotonicity and bounds,
// timestamps non-decreasing in session id, posting ids in range and strictly
// descending — which the candidate merge needs to read "larger id" as "more
// recent" — item ids in range, plausible document frequencies) without
// allocating, so a file-backed load stays O(1) in allocations no matter how
// large the index. A nil c.IDF is recomputed from the document frequencies; a provided
// one (e.g. a mapped section) is cross-checked against them.
func NewIndexFromCSR(c CSR, capacity int, arena Arena) (*Index, error) {
	numSessions := len(c.Times)
	numItems := len(c.DF)
	if len(c.PostingOffsets) != numItems+1 {
		return nil, fmt.Errorf("core: posting offsets (%d) disagree with item count %d", len(c.PostingOffsets), numItems)
	}
	if len(c.SessionItemOffsets) != numSessions+1 {
		return nil, fmt.Errorf("core: session-item offsets (%d) disagree with session count %d", len(c.SessionItemOffsets), numSessions)
	}
	if c.IDF != nil && len(c.IDF) != numItems {
		return nil, fmt.Errorf("core: idf (%d) disagrees with item count %d", len(c.IDF), numItems)
	}
	if err := checkOffsets(c.PostingOffsets, len(c.PostingData), "posting"); err != nil {
		return nil, err
	}
	if err := checkOffsets(c.SessionItemOffsets, len(c.SessionItemData), "session-item"); err != nil {
		return nil, err
	}
	for s := 1; s < numSessions; s++ {
		if c.Times[s] < c.Times[s-1] {
			return nil, fmt.Errorf("core: session %d is older than session %d (ids must ascend with time)", s, s-1)
		}
	}
	for item := 0; item < numItems; item++ {
		lo, hi := c.PostingOffsets[item], c.PostingOffsets[item+1]
		count := int(hi - lo)
		if capacity > 0 && count > capacity {
			return nil, fmt.Errorf("core: posting list of item %d has %d entries, beyond capacity %d", item, count, capacity)
		}
		if int(c.DF[item]) < count || int(c.DF[item]) > numSessions {
			return nil, fmt.Errorf("core: document frequency %d of item %d is implausible (%d postings, %d sessions)", c.DF[item], item, count, numSessions)
		}
		for k := lo; k < hi; k++ {
			sid := c.PostingData[k]
			if int(sid) >= numSessions {
				return nil, fmt.Errorf("core: posting list of item %d references unknown session %d", item, sid)
			}
			if k > lo && c.PostingData[k-1] <= sid {
				return nil, fmt.Errorf("core: posting list of item %d is not strictly descending by session id", item)
			}
		}
	}
	for _, it := range c.SessionItemData {
		if int(it) >= numItems {
			return nil, fmt.Errorf("core: session items reference unknown item %d", it)
		}
	}

	idx := &Index{
		numSessions:        numSessions,
		numItems:           numItems,
		capacity:           capacity,
		times:              c.Times,
		postingOffsets:     c.PostingOffsets,
		postingData:        c.PostingData,
		sessionItemOffsets: c.SessionItemOffsets,
		sessionItemData:    c.SessionItemData,
		df:                 c.DF,
		idf:                c.IDF,
		arenaBytes:         arena.Bytes,
		mapped:             arena.Mapped,
		closeFn:            arena.Close,
	}
	if idx.idf == nil {
		idx.idf = make([]float64, numItems)
		idx.computeIDF()
	} else if err := idx.checkIDF(); err != nil {
		return nil, err
	}
	return idx, nil
}

// checkOffsets validates a CSR offsets array: starts at zero, monotone
// non-decreasing, and ends exactly at the data length.
func checkOffsets(offsets []uint32, dataLen int, kind string) error {
	if offsets[0] != 0 {
		return fmt.Errorf("core: %s offsets do not start at zero", kind)
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("core: %s offsets decrease at %d", kind, i)
		}
	}
	if int(offsets[len(offsets)-1]) != dataLen {
		return fmt.Errorf("core: %s offsets end at %d, data has %d entries", kind, offsets[len(offsets)-1], dataLen)
	}
	return nil
}

// CSR returns the index's flat-arena view, for serialisation. The slices are
// shared and read-only; for a file-backed index they are valid only while
// the index is open.
func (idx *Index) CSR() CSR {
	return CSR{
		Times:              idx.times,
		PostingOffsets:     idx.postingOffsets,
		PostingData:        idx.postingData,
		SessionItemOffsets: idx.sessionItemOffsets,
		SessionItemData:    idx.sessionItemData,
		DF:                 idx.df,
		IDF:                idx.idf,
	}
}

func (idx *Index) computeIDF() {
	for item, f := range idx.df {
		if f > 0 {
			idx.idf[item] = math.Log(float64(idx.numSessions) / float64(f))
		}
	}
}

// checkIDF cross-checks an externally supplied idf vector (a mapped v2
// section) against the document frequencies it is derived from, with a
// tolerance covering cross-platform math.Log rounding.
func (idx *Index) checkIDF() error {
	for item, f := range idx.df {
		want := 0.0
		if f > 0 {
			want = math.Log(float64(idx.numSessions) / float64(f))
		}
		got := idx.idf[item]
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("core: idf of item %d is %v, want %v from df=%d", item, got, want, f)
		}
	}
	return nil
}

// NumSessions reports the number of indexed historical sessions |H|.
func (idx *Index) NumSessions() int { return idx.numSessions }

// NumItems reports the dense item-id space size.
func (idx *Index) NumItems() int { return idx.numItems }

// Capacity reports the posting-list truncation bound (0 = unbounded).
func (idx *Index) Capacity() int { return idx.capacity }

// Postings returns the posting list m_i for an item: the most recent
// sessions containing it, most recent first. The returned slice is shared
// and must not be modified. Unknown items yield nil.
func (idx *Index) Postings(item sessions.ItemID) []sessions.SessionID {
	if int(item) >= idx.numItems {
		return nil
	}
	lo, hi := idx.postingOffsets[item], idx.postingOffsets[item+1]
	if lo == hi {
		return nil
	}
	return idx.postingData[lo:hi:hi]
}

// Time returns the timestamp t_h of a historical session.
func (idx *Index) Time(s sessions.SessionID) int64 { return idx.times[s] }

// Times returns the dense session timestamp array (shared, read-only; for a
// file-backed index it is valid only while the index is open).
func (idx *Index) Times() []int64 { return idx.times }

// SessionItems returns the distinct items of a historical session in first
// occurrence order (shared, read-only).
func (idx *Index) SessionItems(s sessions.SessionID) []sessions.ItemID {
	lo, hi := idx.sessionItemOffsets[s], idx.sessionItemOffsets[s+1]
	if lo == hi {
		return nil
	}
	return idx.sessionItemData[lo:hi:hi]
}

// DF returns the document frequency h_i: the number of historical sessions
// containing the item (before posting-list truncation).
func (idx *Index) DF(item sessions.ItemID) int {
	if int(item) >= len(idx.df) {
		return 0
	}
	return int(idx.df[item])
}

// IDF returns the precomputed weight log(|H|/h_i) (0 for unseen items).
func (idx *Index) IDF(item sessions.ItemID) float64 {
	if int(item) >= len(idx.idf) {
		return 0
	}
	return idx.idf[item]
}

// Mapped reports whether the index reads from an mmap(2) region instead of
// heap memory.
func (idx *Index) Mapped() bool { return idx.mapped }

// Close releases the index's backing arena — for a file-backed index it
// unmaps the region, after which every accessor result and shared slice is
// invalid. Closing a heap-backed index is a no-op. Close is idempotent and
// must only be called once no reader can touch the index again; the serving
// layer drains in-flight requests before closing a replaced generation.
func (idx *Index) Close() error {
	idx.closeOnce.Do(func() {
		idx.closed = true
		if idx.closeFn != nil {
			idx.closeErr = idx.closeFn()
		}
	})
	return idx.closeErr
}

// Closed reports whether Close has been called (for tests asserting the
// swap-drain protocol).
func (idx *Index) Closed() bool { return idx.closed }

// sliceHeaderBytes is the in-memory size of a Go slice header, counted once
// per retained array in the footprint estimates.
const sliceHeaderBytes = 24

// MemoryFootprint estimates the index's total in-memory size in bytes — the
// number the paper quotes as "around 13 gigabytes" for its production index.
// It is the sum of both MemoryBreakdown buckets.
func (idx *Index) MemoryFootprint() int64 {
	heap, mapped := idx.MemoryBreakdown()
	return heap + mapped
}

// MemoryBreakdown splits the index's footprint into heap-resident bytes
// (garbage-collected memory) and mmap-resident bytes (file-backed pages the
// kernel can reclaim under pressure). A heap-built index is all heap; a
// file-backed v2 index is almost all mmap, with only the struct on the heap.
func (idx *Index) MemoryBreakdown() (heapBytes, mmapBytes int64) {
	if idx.arenaBytes > 0 {
		if idx.mapped {
			mmapBytes = idx.arenaBytes
		} else {
			heapBytes = idx.arenaBytes
		}
		heapBytes += 8 * sliceHeaderBytes // slice headers + struct scalars
		return heapBytes, mmapBytes
	}
	heapBytes = int64(len(idx.times))*8 +
		int64(len(idx.postingOffsets))*4 +
		int64(len(idx.postingData))*4 +
		int64(len(idx.sessionItemOffsets))*4 +
		int64(len(idx.sessionItemData))*4 +
		int64(len(idx.df))*4 +
		int64(len(idx.idf))*8 +
		8*sliceHeaderBytes
	return heapBytes, 0
}
