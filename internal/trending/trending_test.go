package trending

import (
	"math"
	"sync"
	"testing"
	"time"

	"serenade/internal/sessions"
)

type clock struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *clock { return &clock{now: time.Unix(1_600_000_000, 0)} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestScoreDecaysByHalfLife(t *testing.T) {
	ck := newClock()
	tr := New(time.Hour, ck.Now)
	tr.Observe(1, 8)
	if got := tr.Score(1); got != 8 {
		t.Fatalf("fresh score = %v, want 8", got)
	}
	ck.Advance(time.Hour)
	if got := tr.Score(1); math.Abs(got-4) > 1e-9 {
		t.Errorf("score after one half-life = %v, want 4", got)
	}
	ck.Advance(2 * time.Hour)
	if got := tr.Score(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("score after three half-lives = %v, want 1", got)
	}
}

func TestObserveAccumulatesWithDecay(t *testing.T) {
	ck := newClock()
	tr := New(time.Hour, ck.Now)
	tr.Observe(1, 4)
	ck.Advance(time.Hour) // decays to 2
	tr.Observe(1, 1)      // 2 + 1
	if got := tr.Score(1); math.Abs(got-3) > 1e-9 {
		t.Errorf("score = %v, want 3", got)
	}
}

func TestTopOrdering(t *testing.T) {
	ck := newClock()
	tr := New(time.Hour, ck.Now)
	tr.Observe(1, 5)
	tr.Observe(2, 10)
	tr.Observe(3, 1)
	top := tr.Top(2)
	if len(top) != 2 || top[0].Item != 2 || top[1].Item != 1 {
		t.Errorf("top = %v, want [2 1]", top)
	}
	if tr.Top(0) != nil {
		t.Error("Top(0) must be nil")
	}
}

func TestTrendDisplacesOldPopularity(t *testing.T) {
	ck := newClock()
	tr := New(time.Hour, ck.Now)
	tr.Observe(1, 100) // yesterday's bestseller
	ck.Advance(12 * time.Hour)
	tr.Observe(2, 5) // trending now
	top := tr.Top(1)
	if top[0].Item != 2 {
		t.Errorf("top = %v, want the fresh trend (item 2) over the decayed bestseller", top)
	}
}

func TestTopNewFiltersByFirstSeen(t *testing.T) {
	ck := newClock()
	tr := New(time.Hour, ck.Now)
	tr.Observe(1, 100) // old item
	ck.Advance(3 * time.Hour)
	tr.Observe(2, 1) // brand new item
	tr.Observe(1, 1) // old item clicked again (firstSeen unchanged)
	fresh := tr.TopNew(10, time.Hour)
	if len(fresh) != 1 || fresh[0].Item != 2 {
		t.Errorf("TopNew = %v, want only item 2", fresh)
	}
}

func TestCompact(t *testing.T) {
	ck := newClock()
	tr := New(time.Hour, ck.Now)
	tr.Observe(1, 1)
	tr.Observe(2, 100)
	ck.Advance(10 * time.Hour) // item 1 decays to ~0.001
	if removed := tr.Compact(0.01); removed != 1 {
		t.Errorf("compact removed %d, want 1", removed)
	}
	if tr.Len() != 1 {
		t.Errorf("tracked items = %d, want 1", tr.Len())
	}
	if tr.Score(1) != 0 {
		t.Error("compacted item still scored")
	}
}

func TestObserveEdgeCases(t *testing.T) {
	tr := New(0, nil) // defaults
	tr.Observe(1, 0)  // no-op
	tr.Observe(1, -5) // no-op
	if tr.Len() != 0 {
		t.Error("non-positive observations created state")
	}
	if tr.Score(42) != 0 {
		t.Error("unknown item scored")
	}
}

func TestConcurrentObserve(t *testing.T) {
	tr := New(time.Hour, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Observe(sessions.ItemID(i%20), 1)
				tr.Top(5)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 20 {
		t.Errorf("tracked items = %d, want 20", tr.Len())
	}
}

// TestCapDropsUnseenItems fills the tracker past maxItems: the extra ids are
// dropped and counted, and once their clicks decay, Compact makes room for a
// new item again.
func TestCapDropsUnseenItems(t *testing.T) {
	ck := newClock()
	tr := New(time.Hour, ck.Now)
	const extra = 10
	for i := 0; i < maxItems+extra; i++ {
		tr.Observe(sessions.ItemID(i), 1)
	}
	if got := tr.Len(); got != maxItems {
		t.Fatalf("Len = %d after %d distinct ids, want the cap %d", got, maxItems+extra, maxItems)
	}
	if got := tr.Dropped(); got != extra {
		t.Fatalf("Dropped = %d, want %d", got, extra)
	}
	tr.Observe(0, 1) // a tracked item still counts at the cap
	if got := tr.Score(0); got != 2 {
		t.Fatalf("tracked item's score at the cap = %v, want 2", got)
	}

	fresh := sessions.ItemID(maxItems + extra)
	ck.Advance(4 * time.Hour) // a single click decays to 1/16
	if removed := tr.Compact(0.25); removed != maxItems {
		t.Fatalf("Compact removed %d, want %d", removed, maxItems)
	}
	tr.Observe(fresh, 1)
	if tr.Len() != 1 || tr.Score(fresh) != 1 {
		t.Fatalf("after Compact: Len = %d, score = %v; want the new item admitted", tr.Len(), tr.Score(fresh))
	}
	if got := tr.Dropped(); got != extra {
		t.Fatalf("Dropped = %d after Compact, want %d", got, extra)
	}
}
