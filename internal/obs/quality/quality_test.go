package quality

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serenade/internal/core"
	"serenade/internal/sessions"
)

// fakeClock drives the tracker deterministically through attribution windows.
type fakeClock struct{ sec atomic.Int64 }

func (c *fakeClock) now() time.Time  { return time.Unix(c.sec.Load(), 0) }
func (c *fakeClock) set(s int64)     { c.sec.Store(s) }
func (c *fakeClock) advance(d int64) { c.sec.Add(d) }

// recs builds a scored list with descending scores.
func recs(items ...sessions.ItemID) []core.ScoredItem {
	out := make([]core.ScoredItem, len(items))
	for i, it := range items {
		out[i] = core.ScoredItem{Item: it, Score: float64(len(items) - i)}
	}
	return out
}

func newTracker(clk *fakeClock, opts Options) *Tracker {
	opts.Now = clk.now
	return New(opts)
}

func TestAttributionOutcomes(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	tr := newTracker(clk, Options{Variant: "a"})
	ln := tr.Line("knn")

	id := tr.RecordExposure(ln, recs(10, 20, 30))
	if id == 0 {
		t.Fatal("RecordExposure returned id 0")
	}

	// First click on the rank-2 item attributes.
	at := tr.Attribute(id, 20, false)
	if at.Outcome != OutcomeAttributed || at.Rank != 2 || at.Variant != "a" || at.Pipeline != "knn" {
		t.Fatalf("click attribution = %+v", at)
	}
	// A second click on the same exposure is a duplicate.
	if at := tr.Attribute(id, 10, false); at.Outcome != OutcomeDuplicate {
		t.Fatalf("duplicate click outcome = %+v", at)
	}
	// A conversion on an already-clicked exposure still counts the conversion.
	if at := tr.Attribute(id, 20, true); at.Outcome != OutcomeAttributed {
		t.Fatalf("conversion outcome = %+v", at)
	}
	// An item that was never in the list cannot be credited.
	id2 := tr.RecordExposure(ln, recs(10, 20, 30))
	if at := tr.Attribute(id2, 99, false); at.Outcome != OutcomeOfflist {
		t.Fatalf("offlist outcome = %+v", at)
	}
	// Unknown ids: zero and never-issued.
	if at := tr.Attribute(0, 10, false); at.Outcome != OutcomeUnknownID {
		t.Fatalf("id-0 outcome = %+v", at)
	}
	if at := tr.Attribute(999999, 10, false); at.Outcome != OutcomeUnknownID {
		t.Fatalf("unissued-id outcome = %+v", at)
	}
	if tr.Unmatched() != 2 {
		t.Fatalf("Unmatched = %d, want 2", tr.Unmatched())
	}

	snap := tr.Snapshot()
	if len(snap.Lines) != 1 {
		t.Fatalf("snapshot has %d lines, want 1", len(snap.Lines))
	}
	cum := snap.Lines[0].Cumulative
	if cum.Exposures != 2 || cum.Clicks != 1 || cum.Conversions != 1 ||
		cum.DuplicateClicks != 1 || cum.OfflistClicks != 1 {
		t.Fatalf("cumulative = %+v", cum)
	}
	if snap.Lines[0].RankClicks[1] != 1 {
		t.Fatalf("rank_clicks = %v, want click at rank 2", snap.Lines[0].RankClicks)
	}
}

// TestNonClickFinalizedOnce is the attribution-window-expiry acceptance test:
// an exposure whose window elapses without a click counts as exactly one
// non-click, no matter how many of the sweep / late-click / ring-recycle
// paths visit it afterwards.
func TestNonClickFinalizedOnce(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	tr := newTracker(clk, Options{Window: 30 * time.Second, Horizon: 5 * time.Minute})
	ln := tr.Line("knn")
	id := tr.RecordExposure(ln, recs(10, 20))

	// Inside the window nothing finalises.
	tr.Sweep()
	if n := ln.finNonclick.Load(); n != 0 {
		t.Fatalf("non-clicks before expiry = %d, want 0", n)
	}

	clk.advance(31)
	tr.Sweep()
	tr.Sweep() // idempotent
	if n := ln.finNonclick.Load(); n != 1 {
		t.Fatalf("non-clicks after repeated sweeps = %d, want 1", n)
	}

	// A late click on the already-finalised exposure reports expired and does
	// not re-finalise.
	if at := tr.Attribute(id, 10, false); at.Outcome != OutcomeExpired {
		t.Fatalf("late click outcome = %+v", at)
	}
	if n := ln.finNonclick.Load(); n != 1 {
		t.Fatalf("non-clicks after late click = %d, want 1", n)
	}
	if n := ln.lateClicks.Load(); n != 1 {
		t.Fatalf("late clicks = %d, want 1", n)
	}
}

// TestLateClickFinalizesUnsweptSlot covers the expiry path where the late
// click itself is the first to observe the elapsed window (no sweeper ran).
func TestLateClickFinalizesUnsweptSlot(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	tr := newTracker(clk, Options{Window: 30 * time.Second})
	ln := tr.Line("knn")
	id := tr.RecordExposure(ln, recs(10))
	clk.advance(31)
	if at := tr.Attribute(id, 10, false); at.Outcome != OutcomeExpired {
		t.Fatalf("outcome = %+v", at)
	}
	if n := ln.finNonclick.Load(); n != 1 {
		t.Fatalf("non-clicks = %d, want 1", n)
	}
	tr.Sweep()
	if n := ln.finNonclick.Load(); n != 1 {
		t.Fatalf("non-clicks after sweep = %d, want 1", n)
	}
}

// TestRecycleFinalizesLappedExposure covers the third expiry path: the ring
// laps an exposure still awaiting feedback, which must finalise it exactly
// once — and a clicked exposure must not be double-counted on recycle.
func TestRecycleFinalizesLappedExposure(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	tr := newTracker(clk, Options{Exposures: 1, Window: time.Minute})
	ln := tr.Line("knn")

	tr.RecordExposure(ln, recs(10)) // will be lapped unclicked
	tr.RecordExposure(ln, recs(20)) // laps slot 0
	if n := ln.finNonclick.Load(); n != 1 {
		t.Fatalf("non-clicks after lap = %d, want 1", n)
	}

	// Clicked exposures are already resolved: lapping them adds nothing, and
	// neither does the post-expiry sweep.
	id := tr.RecordExposure(ln, recs(30))
	if at := tr.Attribute(id, 30, false); at.Outcome != OutcomeAttributed {
		t.Fatalf("outcome = %+v", at)
	}
	tr.RecordExposure(ln, recs(40))
	clk.advance(61)
	tr.Sweep()
	// Ids 1..4 share the one slot: id1 lapped unclicked (#1), id2 lapped
	// unclicked (#2), id3 clicked then lapped (no count), id4 swept (#3).
	if n := ln.finNonclick.Load(); n != 3 {
		t.Fatalf("non-clicks = %d, want 3", n)
	}
	if n := ln.finClicked.Load(); n != 1 {
		t.Fatalf("clicked finalisations = %d, want 1", n)
	}
}

func TestWindowedStatsRollOff(t *testing.T) {
	clk := &fakeClock{}
	clk.set(5000)
	tr := newTracker(clk, Options{Window: 30 * time.Second, Horizon: 4 * time.Minute})
	ln := tr.Line("knn")

	// 4 exposures, 2 clicks at ranks 1 and 2.
	ids := make([]uint64, 4)
	for i := range ids {
		ids[i] = tr.RecordExposure(ln, recs(10, 20, 30))
	}
	tr.Attribute(ids[0], 10, false)
	tr.Attribute(ids[1], 20, true)

	ws := tr.windowStats(ln, time.Minute)
	if ws.Exposures != 4 || ws.Clicks != 2 || ws.Conversions != 1 {
		t.Fatalf("window stats = %+v", ws)
	}
	if ws.CTR != 0.5 {
		t.Fatalf("CTR = %v, want 0.5", ws.CTR)
	}
	wantMRR := (1.0 + 0.5) / 4
	if diff := ws.MRR - wantMRR; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("MRR = %v, want %v", ws.MRR, wantMRR)
	}
	wantCond := (1.0 + 0.5) / 2
	if diff := ws.CondMRR - wantCond; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("CondMRR = %v, want %v", ws.CondMRR, wantCond)
	}

	// Past the horizon the windows drain but the cumulative counters persist.
	clk.advance(300)
	ws = tr.windowStats(ln, tr.opts.Horizon)
	if ws.Exposures != 0 || ws.Clicks != 0 {
		t.Fatalf("stats after horizon = %+v, want empty", ws)
	}
	if ln.cumExposures.Load() != 4 || ln.cumClicks.Load() != 2 {
		t.Fatalf("cumulative lost: exp=%d clicks=%d", ln.cumExposures.Load(), ln.cumClicks.Load())
	}
	// The windowed rank histogram drains with the horizon too.
	if h := tr.windowedRanks(ln, tr.opts.Horizon); h.Total() != 0 {
		t.Fatalf("rank histogram after horizon = %d samples, want 0", h.Total())
	}
}

func TestCoverageAndPopularity(t *testing.T) {
	clk := &fakeClock{}
	clk.set(2000)
	pop := func(it sessions.ItemID) float64 { return float64(it) }
	tr := newTracker(clk, Options{CatalogSize: 10, Popularity: pop, Horizon: 2 * time.Minute})
	ln := tr.Line("knn")
	tr.RecordExposure(ln, recs(1, 2, 3))
	tr.RecordExposure(ln, recs(2, 3, 4))

	if cov := tr.coverage(ln); cov != 0.4 { // items 1,2,3,4 of 10
		t.Fatalf("coverage = %v, want 0.4", cov)
	}
	snap := tr.Snapshot()
	ls := snap.Lines[0]
	if ls.PopularityP50 <= 0 {
		t.Fatalf("popularity quantiles missing: %+v", ls)
	}
	// Out-of-catalogue items are ignored, not panicking.
	tr.RecordExposure(ln, recs(99))
	if cov := tr.coverage(ln); cov != 0.4 {
		t.Fatalf("coverage after offcatalog = %v, want 0.4", cov)
	}
	// Coverage ages out with the horizon.
	clk.advance(200)
	if cov := tr.coverage(ln); cov != 0 {
		t.Fatalf("coverage after horizon = %v, want 0", cov)
	}
}

func TestDriftCTRFloor(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	tr := newTracker(clk, Options{
		Window: 10 * time.Second,
		Drift:  DriftThresholds{CTRFloor: 0.05, MinExposures: 10},
	})
	ln := tr.Line("knn")
	for i := 0; i < 20; i++ {
		tr.RecordExposure(ln, recs(10, 20))
	}
	st := tr.Drift()
	if !st.Drifting || st.Reason != "ctr_floor" {
		t.Fatalf("drift = %+v, want ctr_floor", st)
	}
	// Below the exposure gate the check stays quiet.
	tr2 := newTracker(clk, Options{
		Window: 10 * time.Second,
		Drift:  DriftThresholds{CTRFloor: 0.05, MinExposures: 100},
	})
	ln2 := tr2.Line("knn")
	for i := 0; i < 20; i++ {
		tr2.RecordExposure(ln2, recs(10, 20))
	}
	if st := tr2.Drift(); st.Drifting {
		t.Fatalf("under-gated drift = %+v, want healthy", st)
	}
}

// driveClicks records n exposures on ln and clicks each at the given 1-based
// rank of the list (10, 20, 30, ...).
func driveClicks(tr *Tracker, ln *Line, n, clickRank int) {
	list := recs(10, 20, 30, 40, 50)
	for i := 0; i < n; i++ {
		id := tr.RecordExposure(ln, list)
		tr.Attribute(id, list[clickRank-1].Item, false)
	}
}

func TestDriftRankTV(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	base := &Baseline{K: 5, CondMRR: 1.0, RankDist: []float64{1, 0, 0, 0, 0}}
	tr := newTracker(clk, Options{
		K:        5,
		Baseline: base,
		// MinMRRRatio tiny so only the shape check can trip.
		Drift: DriftThresholds{MinClicks: 5, MaxRankTV: 0.5, MinMRRRatio: 1e-9},
	})
	ln := tr.Line("knn")
	driveClicks(tr, ln, 10, 3) // all clicks at rank 3: TV vs all-rank-1 is 1
	st := tr.Drift()
	if !st.Drifting || st.Reason != "rank_tv" {
		t.Fatalf("drift = %+v, want rank_tv", st)
	}
	if st.RankTV < 0.99 {
		t.Fatalf("RankTV = %v, want ~1", st.RankTV)
	}
}

func TestDriftMRRRatio(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	// No RankDist: the shape check is skipped, only the MRR ratio applies.
	base := &Baseline{K: 5, CondMRR: 1.0}
	tr := newTracker(clk, Options{
		K:        5,
		Baseline: base,
		Drift:    DriftThresholds{MinClicks: 5, MinMRRRatio: 0.5},
	})
	ln := tr.Line("knn")
	driveClicks(tr, ln, 10, 4) // CondMRR 0.25 vs baseline 1.0
	st := tr.Drift()
	if !st.Drifting || st.Reason != "mrr_ratio" {
		t.Fatalf("drift = %+v, want mrr_ratio", st)
	}
	if st.MRRRatio > 0.26 || st.MRRRatio < 0.24 {
		t.Fatalf("MRRRatio = %v, want 0.25", st.MRRRatio)
	}
}

func TestDriftScoreRatio(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	base := &Baseline{K: 5, TopScoreP50: 100}
	tr := newTracker(clk, Options{
		Baseline: base,
		Drift:    DriftThresholds{MinScoreRatio: 0.5, MinExposures: 5},
	})
	ln := tr.Line("knn")
	// Top scores of recs(10,20,30,40,50) are 5 — 5% of the baseline median.
	for i := 0; i < 10; i++ {
		tr.RecordExposure(ln, recs(10, 20, 30, 40, 50))
	}
	st := tr.Drift()
	if !st.Drifting || st.Reason != "score_ratio" {
		t.Fatalf("drift = %+v, want score_ratio", st)
	}
}

func TestDriftHealthyAndWorstLine(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	base := &Baseline{K: 5, CondMRR: 1.0, RankDist: []float64{1, 0, 0, 0, 0}}
	tr := newTracker(clk, Options{
		K:        5,
		Baseline: base,
		Drift:    DriftThresholds{MinClicks: 5, MaxRankTV: 0.5, MinMRRRatio: 0.5},
	})
	good := tr.Line("knn")
	driveClicks(tr, good, 10, 1) // matches the baseline exactly
	if st := tr.Drift(); st.Drifting {
		t.Fatalf("healthy line drifted: %+v", st)
	}
	// A second, degraded pipeline becomes the worst line.
	bad := tr.Line("knn+popular")
	driveClicks(tr, bad, 10, 4)
	st := tr.Drift()
	if !st.Drifting || st.Pipeline != "knn+popular" {
		t.Fatalf("worst line = %+v, want drifting knn+popular", st)
	}
}

// TestSnapshot: one attributed exposure shows in the snapshot's header,
// its line and the line's windowed clicks.
func TestSnapshot(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1000)
	tr := newTracker(clk, Options{Variant: "b", CatalogSize: 10})
	ln := tr.Line("knn")
	id := tr.RecordExposure(ln, recs(1, 2, 3))
	tr.Attribute(id, 2, false)

	snap := tr.Snapshot()
	if snap.Variant != "b" || snap.K != MaxK || len(snap.Lines) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := snap.Lines[0].Windows[0].Clicks; got != 1 {
		t.Fatalf("windowed clicks = %d, want 1", got)
	}
	if got := snap.Lines[0].RankClicks[1]; got != 1 {
		t.Fatalf("rank-2 clicks = %d, want 1", got)
	}
}

// TestConcurrentTracking exercises the full record/attribute/snapshot surface
// from many goroutines; under -race this is the tentpole's concurrency proof.
func TestConcurrentTracking(t *testing.T) {
	tr := New(Options{Exposures: 64, CatalogSize: 100,
		Popularity: func(it sessions.ItemID) float64 { return float64(it) }})
	ln := tr.Line("knn")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // reader
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
				tr.Drift()
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			list := recs(1, 2, 3, 4, 5)
			for i := 0; i < 2000; i++ {
				id := tr.RecordExposure(ln, list)
				if i%3 == 0 {
					tr.Attribute(id, list[i%5].Item, i%7 == 0)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if got := ln.cumExposures.Load(); got != 8*2000 {
		t.Fatalf("exposures = %d, want %d", got, 8*2000)
	}
	// Every exposure resolves exactly once: clicked + non-clicked never
	// exceeds exposures, and after a final expiry sweep the live remainder
	// is bounded by the ring size.
	tr.Sweep()
	resolved := ln.finClicked.Load() + ln.finNonclick.Load()
	if resolved > 8*2000 {
		t.Fatalf("resolved %d exposures of %d recorded", resolved, 8*2000)
	}
	if unresolved := 8*2000 - resolved; unresolved > 64 {
		t.Fatalf("%d exposures unresolved, want ≤ ring size 64", unresolved)
	}
}
