// Package incremental maintains the VMIS-kNN index online, the second
// future-work direction in the paper's conclusion ("whether we can
// incrementally maintain the index"), replacing the daily full rebuild with
// appends of finished sessions. It is storage: queries are core's one
// Algorithm 2 walk (core.ReferenceRecommender) over the index, which
// Recommender runs under the index's read lock.
//
// The design is log-structured: an immutable base index (the last full
// build) plus an in-memory delta holding every session appended since.
// Because session recency is the only ordering the algorithm needs, and all
// delta sessions are newer than all base sessions, a posting list read as
// "delta newest-first, then base posting list" is exactly the posting order
// of a fresh rebuild — the equivalence is property-tested.
// Eviction of sessions older than a horizon (the paper's 180-day window) is
// recorded immediately but applied at the next Compact, which folds the
// delta into a new base, like tombstones in an LSM tree.
package incremental

import (
	"fmt"
	"iter"
	"math"
	"sync"

	"serenade/internal/core"
	"serenade/internal/sessions"
)

// Index is an incrementally maintained session-similarity index. All
// methods are safe for concurrent use; queries proceed under a read lock
// and appends under a write lock.
type Index struct {
	capacity int

	mu          sync.RWMutex
	base        *core.Index
	deltaTimes  []int64
	deltaItems  [][]sessions.ItemID
	deltaPost   map[sessions.ItemID][]sessions.SessionID // ascending time
	deltaDF     map[sessions.ItemID]int
	evictBefore int64
	lastTime    int64
}

// FromDataset builds the initial base index from historical sessions
// (renumbered internally). capacity bounds base posting lists and must be
// at least the largest query-time M; capacity <= 0 keeps complete lists.
func FromDataset(ds *sessions.Dataset, capacity int) (*Index, error) {
	base, err := core.BuildIndex(sessions.Renumber(ds), capacity)
	if err != nil {
		return nil, err
	}
	return New(base, capacity), nil
}

// New wraps an existing base index.
func New(base *core.Index, capacity int) *Index {
	x := &Index{
		capacity:  capacity,
		base:      base,
		deltaPost: make(map[sessions.ItemID][]sessions.SessionID),
		deltaDF:   make(map[sessions.ItemID]int),
	}
	if n := base.NumSessions(); n > 0 {
		x.lastTime = base.Time(sessions.SessionID(n - 1))
	}
	return x
}

// Append adds one finished session with timestamp t. Sessions must arrive
// in non-decreasing time order (the stream of completed sessions is
// naturally ordered). It returns the session's id.
func (x *Index) Append(items []sessions.ItemID, t int64) (sessions.SessionID, error) {
	if len(items) == 0 {
		return 0, fmt.Errorf("incremental: empty session")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if t < x.lastTime {
		return 0, fmt.Errorf("incremental: session time %d precedes the newest indexed session (%d)", t, x.lastTime)
	}
	x.lastTime = t

	id := sessions.SessionID(x.base.NumSessions() + len(x.deltaTimes))
	seen := make(map[sessions.ItemID]struct{}, len(items))
	unique := make([]sessions.ItemID, 0, len(items))
	for _, it := range items {
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		unique = append(unique, it)
		x.deltaPost[it] = append(x.deltaPost[it], id)
		x.deltaDF[it]++
	}
	x.deltaTimes = append(x.deltaTimes, t)
	x.deltaItems = append(x.deltaItems, unique)
	return id, nil
}

// EvictBefore marks sessions older than t for removal at the next Compact
// (the 180-day retention window). It never rewinds an existing horizon.
func (x *Index) EvictBefore(t int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if t > x.evictBefore {
		x.evictBefore = t
	}
}

// NumSessions reports |H|: base plus delta sessions (pending evictions
// still count until Compact applies them).
func (x *Index) NumSessions() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.base.NumSessions() + len(x.deltaTimes)
}

// DeltaSessions reports how many sessions await compaction.
func (x *Index) DeltaSessions() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.deltaTimes)
}

// Compact folds the delta into a fresh base index, applying the eviction
// horizon — the equivalent of the paper's daily rebuild, but fed from the
// in-memory state instead of a full batch job.
func (x *Index) Compact() error {
	x.mu.Lock()
	defer x.mu.Unlock()

	var live []sessions.Session
	appendSession := func(items []sessions.ItemID, t int64) {
		times := make([]int64, len(items))
		for i := range times {
			times[i] = t
		}
		live = append(live, sessions.Session{
			ID:    sessions.SessionID(len(live)),
			Items: items,
			Times: times,
		})
	}
	for s := 0; s < x.base.NumSessions(); s++ {
		sid := sessions.SessionID(s)
		if x.base.Time(sid) < x.evictBefore {
			continue
		}
		appendSession(x.base.SessionItems(sid), x.base.Time(sid))
	}
	for i, t := range x.deltaTimes {
		if t < x.evictBefore {
			continue
		}
		appendSession(x.deltaItems[i], t)
	}

	base, err := core.BuildIndex(sessions.FromSessions("compacted", live), x.capacity)
	if err != nil {
		return fmt.Errorf("incremental: compacting: %w", err)
	}
	x.base = base
	x.deltaTimes = nil
	x.deltaItems = nil
	x.deltaPost = make(map[sessions.ItemID][]sessions.SessionID)
	x.deltaDF = make(map[sessions.ItemID]int)
	return nil
}

// view is the Index as core's walk reads it: a core.Source over base plus
// delta. Its methods take no lock; the caller holds the index's mu for
// reading, as Recommender does around each walk.
type view Index

func (v *view) Capacity() int { return v.capacity }

// RecentSessions yields the delta's postings newest first, then the base
// list. Delta sessions are all newer than base sessions and the delta list
// ascends in time, so this is the descending-recency order of a rebuild,
// and a stop inside the delta never reads the base list.
func (v *view) RecentSessions(item sessions.ItemID) iter.Seq[sessions.SessionID] {
	return func(yield func(sessions.SessionID) bool) {
		delta := v.deltaPost[item]
		for i := len(delta) - 1; i >= 0; i-- {
			if !yield(delta[i]) {
				return
			}
		}
		for _, j := range v.base.Postings(item) {
			if !yield(j) {
				return
			}
		}
	}
}

func (v *view) Time(sid sessions.SessionID) int64 {
	if n := v.base.NumSessions(); int(sid) >= n {
		return v.deltaTimes[int(sid)-n]
	}
	return v.base.Time(sid)
}

func (v *view) AppendSessionItems(dst []sessions.ItemID, sid sessions.SessionID) []sessions.ItemID {
	if n := v.base.NumSessions(); int(sid) >= n {
		return append(dst, v.deltaItems[int(sid)-n]...)
	}
	return v.base.AppendSessionItems(dst, sid)
}

func (v *view) IDF(item sessions.ItemID) float64 {
	df := v.base.DF(item) + v.deltaDF[item]
	if df == 0 {
		return 0
	}
	total := v.base.NumSessions() + len(v.deltaTimes)
	return math.Log(float64(total) / float64(df))
}
