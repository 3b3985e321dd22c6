// Package compressed is storage for a compressed in-memory VMIS-kNN index,
// the first future-work direction named in the paper's conclusion ("whether
// we can run our similarity computations on a compressed version of the
// index"). It has no query code: *Index is a core.Source, and
// core.ReferenceRecommender runs Algorithm 2's walk over it in place.
//
// Posting lists are descending in session id, so they are stored as a head
// value plus positive deltas in varint encoding, and per-session item lists
// are varint-encoded; both live in two shared byte arenas with per-entry
// offsets. Timestamps keep their dense array because the algorithm needs
// random access by session id. RecentSessions decodes a posting list lazily
// through a cursor, so the walk's early stop also skips *decoding* the cold
// tail of each list — compression and the algorithm's access pattern
// compose.
package compressed

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"slices"

	"serenade/internal/core"
	"serenade/internal/sessions"
)

// Index is a compressed, immutable VMIS-kNN index. Safe for concurrent
// readers.
type Index struct {
	numSessions int
	numItems    int
	capacity    int
	times       []int64

	postingData []byte
	postingOff  []uint32 // numItems+1 offsets into postingData

	itemData []byte
	itemOff  []uint32 // numSessions+1 offsets into itemData

	df  []int32
	idf []float64
}

var _ core.Source = (*Index)(nil)

// FromIndex compresses an existing index. Every array is the compressed
// index's own copy, so the original — an mmap-backed one included — can be
// closed and released afterwards.
func FromIndex(src *core.Index) *Index {
	n := src.NumSessions()
	items := src.NumItems()
	c := &Index{
		numSessions: n,
		numItems:    items,
		capacity:    src.Capacity(),
		times:       slices.Clone(src.Times()),
		postingOff:  make([]uint32, items+1),
		itemOff:     make([]uint32, n+1),
		df:          make([]int32, items),
		idf:         make([]float64, items),
	}

	var buf [binary.MaxVarintLen64]byte
	for i := 0; i < items; i++ {
		item := sessions.ItemID(i)
		c.df[i] = int32(src.DF(item))
		c.idf[i] = src.IDF(item)
		c.postingOff[i] = uint32(len(c.postingData))
		postings := src.Postings(item)
		k := binary.PutUvarint(buf[:], uint64(len(postings)))
		c.postingData = append(c.postingData, buf[:k]...)
		prev := uint64(0)
		for j, sid := range postings {
			v := uint64(sid)
			if j == 0 {
				k = binary.PutUvarint(buf[:], v)
			} else {
				k = binary.PutUvarint(buf[:], prev-v) // descending: deltas >= 0
			}
			prev = v
			c.postingData = append(c.postingData, buf[:k]...)
		}
	}
	c.postingOff[items] = uint32(len(c.postingData))

	for s := 0; s < n; s++ {
		c.itemOff[s] = uint32(len(c.itemData))
		list := src.SessionItems(sessions.SessionID(s))
		k := binary.PutUvarint(buf[:], uint64(len(list)))
		c.itemData = append(c.itemData, buf[:k]...)
		for _, it := range list {
			k = binary.PutUvarint(buf[:], uint64(it))
			c.itemData = append(c.itemData, buf[:k]...)
		}
	}
	c.itemOff[n] = uint32(len(c.itemData))
	return c
}

// NumSessions reports |H|.
func (c *Index) NumSessions() int { return c.numSessions }

// NumItems reports the dense item-id space size.
func (c *Index) NumItems() int { return c.numItems }

// Capacity reports the posting-list truncation bound inherited from the
// source index.
func (c *Index) Capacity() int { return c.capacity }

// Time returns the timestamp of a historical session.
func (c *Index) Time(s sessions.SessionID) int64 { return c.times[s] }

// IDF returns log(|H|/h_i).
func (c *Index) IDF(item sessions.ItemID) float64 {
	if int(item) >= len(c.idf) {
		return 0
	}
	return c.idf[item]
}

// DF returns the document frequency of an item.
func (c *Index) DF(item sessions.ItemID) int {
	if int(item) >= len(c.df) {
		return 0
	}
	return int(c.df[item])
}

// MemoryFootprint estimates the compressed index's in-memory size in bytes,
// comparable to (*core.Index).MemoryFootprint.
func (c *Index) MemoryFootprint() int64 {
	var b int64
	b += int64(len(c.times)) * 8
	b += int64(len(c.postingData)) + int64(len(c.postingOff))*4
	b += int64(len(c.itemData)) + int64(len(c.itemOff))*4
	b += int64(len(c.df))*4 + int64(len(c.idf))*8
	return b
}

// postingCursor iterates a compressed posting list without materialising it.
type postingCursor struct {
	data      []byte
	remaining int
	cur       uint64
	first     bool
}

// postings opens a cursor over an item's posting list.
func (c *Index) postings(item sessions.ItemID) postingCursor {
	if int(item) >= c.numItems {
		return postingCursor{}
	}
	data := c.postingData[c.postingOff[item]:c.postingOff[item+1]]
	count, n := binary.Uvarint(data)
	return postingCursor{data: data[n:], remaining: int(count), first: true}
}

// next yields the next (most recent remaining) session id.
func (pc *postingCursor) next() (sessions.SessionID, bool) {
	if pc.remaining == 0 {
		return 0, false
	}
	v, n := binary.Uvarint(pc.data)
	pc.data = pc.data[n:]
	pc.remaining--
	if pc.first {
		pc.cur = v
		pc.first = false
	} else {
		pc.cur -= v
	}
	return sessions.SessionID(pc.cur), true
}

// RecentSessions yields an item's posting list, most recent first, decoding
// one posting per step: when the consumer stops ranging, decoding stops.
func (c *Index) RecentSessions(item sessions.ItemID) iter.Seq[sessions.SessionID] {
	return func(yield func(sessions.SessionID) bool) {
		pc := c.postings(item)
		for {
			sid, ok := pc.next()
			if !ok || !yield(sid) {
				return
			}
		}
	}
}

// AppendSessionItems decodes a session's distinct items, appending them to
// dst, so a caller reusing dst decodes without allocating.
func (c *Index) AppendSessionItems(dst []sessions.ItemID, s sessions.SessionID) []sessions.ItemID {
	data := c.itemData[c.itemOff[s]:c.itemOff[s+1]]
	count, n := binary.Uvarint(data)
	data = data[n:]
	for i := 0; i < int(count); i++ {
		v, n := binary.Uvarint(data)
		data = data[n:]
		dst = append(dst, sessions.ItemID(v))
	}
	return dst
}

// SessionItems returns a session's distinct items (allocating; tests and
// inspection — the walk uses AppendSessionItems).
func (c *Index) SessionItems(s sessions.SessionID) []sessions.ItemID {
	return c.AppendSessionItems(nil, s)
}

// Postings materialises an item's posting list (allocating; for tests).
func (c *Index) Postings(item sessions.ItemID) []sessions.SessionID {
	return slices.Collect(c.RecentSessions(item))
}

// CompressionRatio reports source footprint divided by compressed
// footprint.
func CompressionRatio(src *core.Index, c *Index) float64 {
	d := float64(c.MemoryFootprint())
	if d == 0 {
		return math.Inf(1)
	}
	return float64(src.MemoryFootprint()) / d
}

// validate is used by tests to ensure offsets are coherent.
func (c *Index) validate() error {
	if len(c.postingOff) != c.numItems+1 || len(c.itemOff) != c.numSessions+1 {
		return fmt.Errorf("compressed: offset table sizes inconsistent")
	}
	return nil
}
