// Package trending tracks exponentially-decayed item popularity from the
// live click stream. The paper's design pushes cold-start handling out of
// Serenade: the daily index build means new items are invisible to
// VMIS-kNN for up to a day, and "a separate, specialised system for
// presenting new and trending items" covers them (§4.1). This package is
// that system's core: an online popularity tracker whose scores halve every
// configured half-life, plus a new-item view for the cold-start slot.
package trending

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"serenade/internal/core"
	"serenade/internal/sessions"
)

// maxItems caps the items a Tracker holds. Item ids come from clients and
// are not range-checked (an item the daily index has not seen is exactly
// what the tracker is for), so without a cap a client cycling ids grows the
// heap without bound. At the cap Observe does not admit an unseen item; it
// counts it in Dropped instead, until Compact makes room. One entry costs
// ~100 B of heap (map slot plus the state it points to; 26.2 MB for a full
// tracker, measured with go1.24 on amd64), so a full tracker holds ~25 MiB.
const maxItems = 1 << 18

// Tracker maintains decayed popularity scores for at most maxItems
// (262,144) items. Safe for concurrent use.
type Tracker struct {
	halfLife time.Duration
	now      func() time.Time

	mu    sync.Mutex
	items map[sessions.ItemID]*state

	dropped atomic.Uint64
}

type state struct {
	score      float64
	lastUpdate time.Time
	firstSeen  time.Time
}

// New creates a tracker whose scores halve every halfLife (e.g. 2h for a
// fast-moving "trending now" slot). now defaults to time.Now.
func New(halfLife time.Duration, now func() time.Time) *Tracker {
	if halfLife <= 0 {
		halfLife = 2 * time.Hour
	}
	if now == nil {
		now = time.Now
	}
	return &Tracker{
		halfLife: halfLife,
		now:      now,
		items:    make(map[sessions.ItemID]*state),
	}
}

// decayFactor computes 0.5^(dt/halfLife).
func (t *Tracker) decayFactor(dt time.Duration) float64 {
	if dt <= 0 {
		return 1
	}
	return math.Exp2(-float64(dt) / float64(t.halfLife))
}

// Observe records n interactions with an item. An unseen item is dropped
// when the tracker already holds maxItems.
func (t *Tracker) Observe(item sessions.ItemID, n int) {
	if n <= 0 {
		return
	}
	nowT := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.items[item]
	if !ok {
		if len(t.items) >= maxItems {
			t.dropped.Add(1)
			return
		}
		s = &state{firstSeen: nowT, lastUpdate: nowT}
		t.items[item] = s
	}
	s.score = s.score*t.decayFactor(nowT.Sub(s.lastUpdate)) + float64(n)
	s.lastUpdate = nowT
}

// Score returns the item's current decayed popularity.
func (t *Tracker) Score(item sessions.ItemID) float64 {
	nowT := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.items[item]
	if !ok {
		return 0
	}
	return s.score * t.decayFactor(nowT.Sub(s.lastUpdate))
}

// Top returns the n most popular items right now, ties toward smaller ids.
func (t *Tracker) Top(n int) []core.ScoredItem {
	return t.top(n, func(*state) bool { return true })
}

// TopNew returns the n most popular items among those first seen within
// maxAge — the "new and trending" slot for items the daily index cannot
// know yet.
func (t *Tracker) TopNew(n int, maxAge time.Duration) []core.ScoredItem {
	cutoff := t.now().Add(-maxAge)
	return t.top(n, func(s *state) bool { return !s.firstSeen.Before(cutoff) })
}

func (t *Tracker) top(n int, keep func(*state) bool) []core.ScoredItem {
	if n <= 0 {
		return nil
	}
	nowT := t.now()
	t.mu.Lock()
	out := make([]core.ScoredItem, 0, len(t.items))
	for item, s := range t.items {
		if !keep(s) {
			continue
		}
		score := s.score * t.decayFactor(nowT.Sub(s.lastUpdate))
		if score > 0 {
			out = append(out, core.ScoredItem{Item: item, Score: score})
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Item < out[j].Item
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Compact drops items whose decayed score fell below minScore and reports
// how many were removed; run periodically, so that items stop being tracked
// once their clicks have decayed and a full tracker admits new ones again.
func (t *Tracker) Compact(minScore float64) int {
	nowT := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := 0
	for item, s := range t.items {
		if s.score*t.decayFactor(nowT.Sub(s.lastUpdate)) < minScore {
			delete(t.items, item)
			removed++
		}
	}
	return removed
}

// Len reports the number of tracked items.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

// Dropped reports how many unseen items Observe refused at maxItems.
func (t *Tracker) Dropped() uint64 { return t.dropped.Load() }
