// Package quality is the click-attribution loop of the online quality
// experiment (serenade-loadtest -click-model): each served recommendation
// list is recorded as an exposure (variant, pipeline, top-k items) under a
// recommendation id; click/conversion feedback is attributed back to the
// exposure within a configurable window; and the attributed stream is
// folded into per-variant, per-pipeline windowed quality gauges —
// attributed CTR, online MRR estimates, the click-rank histogram, catalogue
// coverage and popularity-bias quantiles — plus a drift detector that
// compares the online rank/score distribution against an offline baseline.
//
// The paper's §6 validates Serenade with exactly this signal (online CTR
// uplift per variant); this package is what makes that experiment runnable
// on the reproduction. It sits beside the serving pods, not in them: the
// experiment reads each response and records it here. The exposure-record
// and attribution paths are zero-alloc and wait-free-ish (fixed rings,
// atomics, one short per-slot mutex), built on the metrics.WindowedCounter
// second-buckets so the gauges roll forward without a sweeper thread.
package quality

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"serenade/internal/core"
	"serenade/internal/metrics"
	"serenade/internal/rank"
	"serenade/internal/sessions"
)

const (
	// MaxK bounds the recommendation list length an exposure slot can hold;
	// lists are truncated, never dropped.
	MaxK = 32
	// rankRingSize bounds the windowed click-rank sample ring per line; the
	// drift distribution is computed over the most recent samples inside the
	// horizon, which is ample for a total-variation test.
	rankRingSize = 2048
	// sampleRingSize bounds the popularity / top-score sample rings.
	sampleRingSize = 512
)

// Attribution outcomes reported by Track.
const (
	OutcomeAttributed = "attributed"
	OutcomeUnknownID  = "unknown_id"
	OutcomeExpired    = "expired"
	OutcomeDuplicate  = "duplicate"
	OutcomeOfflist    = "offlist"
)

// DefaultWindow is the attribution window when Options.Window is zero: a
// click later than this after the exposure no longer credits it.
const DefaultWindow = 2 * time.Minute

// DefaultHorizon is the windowed-gauge horizon when Options.Horizon is zero.
const DefaultHorizon = 10 * time.Minute

// Options configures a Tracker. The zero value is usable: defaults are
// applied by New.
type Options struct {
	// Variant names the serving variant this replica is running (A/B arm);
	// empty means "default".
	Variant string
	// Window is the attribution window; DefaultWindow when zero.
	Window time.Duration
	// Horizon is the windowed-gauge horizon; DefaultHorizon when zero, and
	// clamped to at least Window (an exposure must stay visible in the
	// windows long enough to be attributed).
	Horizon time.Duration
	// K is the rank cutoff for attribution and histograms; capped at MaxK.
	// Zero means MaxK.
	K int
	// Exposures is the exposure ring capacity — the number of outstanding
	// recommendations awaiting feedback. An exposure recycled before its
	// window elapsed finalises as a non-click; size the ring above
	// (peak RPS x window seconds) to avoid early finalisation. Default 8192.
	Exposures int
	// Baseline is the offline reference snapshot for drift detection; nil
	// disables the baseline-relative checks (the CTR floor still applies).
	Baseline *Baseline
	// Drift holds the detector thresholds; zero fields take defaults.
	Drift DriftThresholds
	// Popularity maps an item to its training popularity (click count);
	// nil disables the popularity-bias quantiles.
	Popularity func(sessions.ItemID) float64
	// CatalogSize is the number of recommendable items, used to size the
	// coverage stamp table; zero disables coverage.
	CatalogSize int
	// Now injects a clock for tests; nil means time.Now.
	Now func() time.Time
}

// Windows are the trailing windows the quality gauges are reported over;
// the second entry is replaced by the configured horizon.
var Windows = [2]time.Duration{time.Minute, DefaultHorizon}

// slot is one outstanding exposure awaiting attribution. Slots live in a
// fixed ring indexed by recommendation id, so the whole structure is
// allocated once; the per-slot mutex is uncontended except when a click
// races the slot's recycling.
type slot struct {
	mu        sync.Mutex
	id        uint64
	atUnix    int64
	line      *Line
	n         uint8
	clicked   bool
	finalized bool
	items     [MaxK]sessions.ItemID
}

// Line accumulates quality counters for one (variant, pipeline) pair. All
// fields are atomics or wait-free rings; the hot path takes no line-level
// lock.
type Line struct {
	variant  string
	pipeline string

	// flow lanes: exposures, clicks, conversions.
	flow *metrics.WindowedCounter
	// aux lanes: reciprocal-rank micros (sum of 1e6/rank per attributed
	// click), finalised non-clicks, late clicks.
	aux *metrics.WindowedCounter

	cumExposures   atomic.Uint64
	cumClicks      atomic.Uint64
	cumConversions atomic.Uint64
	finClicked     atomic.Uint64
	finNonclick    atomic.Uint64
	dupClicks      atomic.Uint64
	offlistClicks  atomic.Uint64
	lateClicks     atomic.Uint64

	// rankCum counts attributed clicks by rank 1..K, cumulatively.
	rankCum []atomic.Uint64

	// rankRing holds windowed click-rank samples packed as unix<<8 | rank,
	// so one atomic store publishes stamp and value tear-free.
	rankRing [rankRingSize]atomic.Uint64
	rankPos  atomic.Uint64

	// popularity / top-score sample rings: paired stamp+bits arrays. A read
	// torn across a recycle mixes one sample's stamp with another's value —
	// acceptable noise for quantile gauges.
	popStamp   [sampleRingSize]atomic.Int64
	popBits    [sampleRingSize]atomic.Uint64
	popPos     atomic.Uint64
	scoreStamp [sampleRingSize]atomic.Int64
	scoreBits  [sampleRingSize]atomic.Uint64
	scorePos   atomic.Uint64

	// covStamps[i] is the unix second item i last appeared in a list; the
	// coverage gauge counts stamps inside the horizon. Items beyond the
	// catalogue size at construction are not tracked.
	covStamps []atomic.Int64
}

// Tracker is the per-replica quality telemetry engine.
type Tracker struct {
	opts        Options
	windowSecs  int64
	horizonSecs int64
	k           int
	slots       []slot
	seq         atomic.Uint64
	unmatched   atomic.Uint64
	nowUnix     func() int64
	now         func() time.Time

	mu    sync.Mutex
	lines map[string]*Line
	list  []*Line
}

// New creates a Tracker, applying Option defaults.
func New(opts Options) *Tracker {
	if opts.Variant == "" {
		opts.Variant = "default"
	}
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.Horizon <= 0 {
		opts.Horizon = DefaultHorizon
	}
	if opts.Horizon < opts.Window {
		opts.Horizon = opts.Window
	}
	if opts.K <= 0 || opts.K > MaxK {
		opts.K = MaxK
	}
	if opts.Exposures <= 0 {
		opts.Exposures = 8192
	}
	opts.Drift = opts.Drift.withDefaults()
	if opts.Now == nil {
		opts.Now = time.Now
	}
	t := &Tracker{
		opts:        opts,
		windowSecs:  int64(opts.Window / time.Second),
		horizonSecs: int64(opts.Horizon / time.Second),
		k:           opts.K,
		slots:       make([]slot, opts.Exposures),
		now:         opts.Now,
		lines:       make(map[string]*Line),
	}
	if t.windowSecs < 1 {
		t.windowSecs = 1
	}
	t.nowUnix = func() int64 { return t.now().Unix() }
	return t
}

// Line returns the accumulator for a pipeline under this tracker's variant,
// creating it on first use. Snapshot reports lines in creation order.
func (t *Tracker) Line(pipeline string) *Line {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ln, ok := t.lines[pipeline]; ok {
		return ln
	}
	ln := &Line{
		variant:  t.opts.Variant,
		pipeline: pipeline,
		flow:     metrics.NewWindowedCounter(t.opts.Horizon, t.now),
		aux:      metrics.NewWindowedCounter(t.opts.Horizon, t.now),
		rankCum:  make([]atomic.Uint64, t.k),
	}
	if t.opts.CatalogSize > 0 {
		ln.covStamps = make([]atomic.Int64, t.opts.CatalogSize)
		for i := range ln.covStamps {
			ln.covStamps[i].Store(-1)
		}
	}
	t.lines[pipeline] = ln
	t.list = append(t.list, ln)
	return ln
}

// snapshotLines copies the line list under the registry lock.
func (t *Tracker) snapshotLines() []*Line {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Line, len(t.list))
	copy(out, t.list)
	return out
}

// RecordExposure records one served recommendation list and returns its
// recommendation id (never zero). The slot previously occupying the ring
// position is finalised as a non-click if its feedback never arrived.
// The path is allocation-free: fixed arrays, atomics, and one slot mutex.
func (t *Tracker) RecordExposure(ln *Line, recs []core.ScoredItem) uint64 {
	now := t.nowUnix()
	id := t.seq.Add(1)
	s := &t.slots[id%uint64(len(t.slots))]
	s.mu.Lock()
	if s.id != 0 && !s.finalized {
		// The ring lapped an exposure still awaiting feedback; it counts as
		// a non-click exactly once, here.
		finalizeNonclick(s, now)
	}
	s.id = id
	s.atUnix = now
	s.line = ln
	s.clicked = false
	s.finalized = false
	n := len(recs)
	if n > t.k {
		n = t.k
	}
	s.n = uint8(n)
	for i := 0; i < n; i++ {
		s.items[i] = recs[i].Item
	}
	s.mu.Unlock()

	ln.flow.Add(1, 0, 0)
	ln.cumExposures.Add(1)
	for i := 0; i < n; i++ {
		if idx := int(recs[i].Item); idx >= 0 && idx < len(ln.covStamps) {
			ln.covStamps[idx].Store(now)
		}
	}
	if t.opts.Popularity != nil && n > 0 {
		var sum float64
		for i := 0; i < n; i++ {
			sum += t.opts.Popularity(recs[i].Item)
		}
		pushSample(&ln.popStamp, &ln.popBits, &ln.popPos, now, sum/float64(n))
	}
	if n > 0 {
		pushSample(&ln.scoreStamp, &ln.scoreBits, &ln.scorePos, now, recs[0].Score)
	}
	return id
}

// pushSample publishes one (stamp, value) sample into a paired ring.
func pushSample(stamps *[sampleRingSize]atomic.Int64, bits *[sampleRingSize]atomic.Uint64, pos *atomic.Uint64, now int64, v float64) {
	i := (pos.Add(1) - 1) % sampleRingSize
	stamps[i].Store(now)
	bits[i].Store(math.Float64bits(v))
}

// finalizeNonclick marks a live, unclicked slot as resolved and counts the
// non-click. The caller holds the slot mutex; the finalized flag makes the
// count exactly-once across the recycle, sweep and late-click paths.
func finalizeNonclick(s *slot, now int64) {
	s.finalized = true
	s.line.finNonclick.Add(1)
	s.line.aux.Add(0, 1, 0)
	_ = now
}

// Attribution is the result of attributing one feedback event.
type Attribution struct {
	Outcome  string `json:"outcome"`
	Rank     int    `json:"rank,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Pipeline string `json:"pipeline,omitempty"`
}

// Attribute joins one click (or conversion) back to its exposure. item is
// the item the user acted on; the event attributes when the exposure is
// still in the ring, inside the window, and the item appeared in the list.
func (t *Tracker) Attribute(id uint64, item sessions.ItemID, conversion bool) Attribution {
	if id == 0 {
		t.unmatched.Add(1)
		return Attribution{Outcome: OutcomeUnknownID}
	}
	now := t.nowUnix()
	s := &t.slots[id%uint64(len(t.slots))]
	s.mu.Lock()
	if s.id != id {
		s.mu.Unlock()
		t.unmatched.Add(1)
		return Attribution{Outcome: OutcomeUnknownID}
	}
	ln := s.line
	if now-s.atUnix > t.windowSecs {
		// Too late to credit; the exposure resolves (once) as a non-click
		// and the event is counted so chronic lateness stays visible.
		if !s.finalized && !s.clicked {
			finalizeNonclick(s, now)
		}
		s.mu.Unlock()
		ln.lateClicks.Add(1)
		ln.aux.Add(0, 0, 1)
		return Attribution{Outcome: OutcomeExpired, Variant: ln.variant, Pipeline: ln.pipeline}
	}
	r := rank.RankOf(s.items[:s.n], item, 0)
	if r == 0 {
		s.mu.Unlock()
		ln.offlistClicks.Add(1)
		return Attribution{Outcome: OutcomeOfflist, Variant: ln.variant, Pipeline: ln.pipeline}
	}
	first := !s.clicked
	if !first && !conversion {
		s.mu.Unlock()
		ln.dupClicks.Add(1)
		return Attribution{Outcome: OutcomeDuplicate, Rank: r, Variant: ln.variant, Pipeline: ln.pipeline}
	}
	s.clicked = true
	s.finalized = true
	s.mu.Unlock()

	var convLane uint64
	if conversion {
		ln.cumConversions.Add(1)
		convLane = 1
	}
	if first {
		ln.cumClicks.Add(1)
		ln.finClicked.Add(1)
		ln.flow.Add(0, 1, convLane)
		ln.aux.Add(uint64(1e6*rank.Reciprocal(r)), 0, 0)
		ln.rankCum[min(r, t.k)-1].Add(1)
		i := (ln.rankPos.Add(1) - 1) % rankRingSize
		ln.rankRing[i].Store(uint64(now)<<8 | uint64(min(r, t.k)))
	} else {
		ln.flow.Add(0, 0, convLane)
	}
	return Attribution{Outcome: OutcomeAttributed, Rank: r, Variant: ln.variant, Pipeline: ln.pipeline}
}

// Sweep finalises exposures whose attribution window elapsed without
// feedback, counting each as a non-click exactly once. Serving calls it from
// its periodic session sweeper; Snapshot and Drift also call it so reads
// reflect resolved windows even without a sweeper.
func (t *Tracker) Sweep() {
	now := t.nowUnix()
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if s.id != 0 && !s.finalized && now-s.atUnix > t.windowSecs {
			finalizeNonclick(s, now)
		}
		s.mu.Unlock()
	}
}

// Unmatched reports feedback events that referenced no live exposure.
func (t *Tracker) Unmatched() uint64 { return t.unmatched.Load() }

// windowedRanks folds the line's click-rank ring into a histogram over the
// trailing window.
func (t *Tracker) windowedRanks(ln *Line, window time.Duration) *rank.Histogram {
	secs := int64(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > t.horizonSecs {
		secs = t.horizonSecs
	}
	now := t.nowUnix()
	oldest := now - secs + 1
	h := rank.NewHistogram(t.k)
	for i := range ln.rankRing {
		v := ln.rankRing[i].Load()
		if v == 0 {
			continue
		}
		if st := int64(v >> 8); st >= oldest && st <= now {
			h.Add(int(v & 0xff))
		}
	}
	return h
}

// windowedSamples reads a paired sample ring over the trailing window.
func (t *Tracker) windowedSamples(stamps *[sampleRingSize]atomic.Int64, bits *[sampleRingSize]atomic.Uint64, window time.Duration) []float64 {
	secs := int64(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	now := t.nowUnix()
	oldest := now - secs + 1
	out := make([]float64, 0, sampleRingSize)
	for i := range stamps {
		if st := stamps[i].Load(); st >= oldest && st <= now {
			out = append(out, math.Float64frombits(bits[i].Load()))
		}
	}
	return out
}

// coverage reports the share of the catalogue recommended inside the horizon.
func (t *Tracker) coverage(ln *Line) float64 {
	if len(ln.covStamps) == 0 {
		return 0
	}
	now := t.nowUnix()
	oldest := now - t.horizonSecs + 1
	distinct := 0
	for i := range ln.covStamps {
		if st := ln.covStamps[i].Load(); st >= oldest && st <= now {
			distinct++
		}
	}
	return rank.Coverage(distinct, len(ln.covStamps))
}

// WindowStats is one trailing window's quality summary for a line.
type WindowStats struct {
	Window      string  `json:"window"`
	Exposures   uint64  `json:"exposures"`
	Clicks      uint64  `json:"clicks"`
	Conversions uint64  `json:"conversions"`
	NonClicks   uint64  `json:"non_clicks"`
	LateClicks  uint64  `json:"late_clicks"`
	CTR         float64 `json:"ctr"`
	// MRR is the naive online estimate: summed reciprocal ranks over
	// exposures. It is biased low by non-feedback; CondMRR (per click) is
	// the estimate compared against the baseline.
	MRR     float64 `json:"mrr"`
	CondMRR float64 `json:"cond_mrr"`
}

// windowStats computes one window's stats for a line.
func (t *Tracker) windowStats(ln *Line, w time.Duration) WindowStats {
	exp, clicks, conv := ln.flow.Sum(w)
	rrMicros, nonclicks, late := ln.aux.Sum(w)
	ws := WindowStats{
		Window:      w.String(),
		Exposures:   exp,
		Clicks:      clicks,
		Conversions: conv,
		NonClicks:   nonclicks,
		LateClicks:  late,
	}
	if exp > 0 {
		ws.CTR = float64(clicks) / float64(exp)
		ws.MRR = float64(rrMicros) / 1e6 / float64(exp)
	}
	if clicks > 0 {
		ws.CondMRR = float64(rrMicros) / 1e6 / float64(clicks)
	}
	return ws
}

// CumulativeStats are the monotone per-line counters.
type CumulativeStats struct {
	Exposures       uint64 `json:"exposures"`
	Clicks          uint64 `json:"clicks"`
	Conversions     uint64 `json:"conversions"`
	NonClicks       uint64 `json:"non_clicks"`
	DuplicateClicks uint64 `json:"duplicate_clicks"`
	OfflistClicks   uint64 `json:"offlist_clicks"`
	LateClicks      uint64 `json:"late_clicks"`
}

// LineSnapshot is one (variant, pipeline) line's full quality picture.
type LineSnapshot struct {
	Variant    string          `json:"variant"`
	Pipeline   string          `json:"pipeline"`
	Windows    []WindowStats   `json:"windows"`
	Cumulative CumulativeStats `json:"cumulative"`
	// RankClicks counts attributed clicks by rank 1..K, cumulatively.
	RankClicks []uint64 `json:"rank_clicks"`
	// RankDist is the windowed (horizon) click-rank distribution.
	RankDist []float64 `json:"rank_dist,omitempty"`
	Coverage float64   `json:"coverage"`
	// Popularity-bias and top-score quantiles over the horizon's samples.
	PopularityP50 float64    `json:"popularity_p50,omitempty"`
	PopularityP90 float64    `json:"popularity_p90,omitempty"`
	PopularityP99 float64    `json:"popularity_p99,omitempty"`
	TopScoreP50   float64    `json:"top_score_p50,omitempty"`
	TopScoreP90   float64    `json:"top_score_p90,omitempty"`
	Drift         DriftState `json:"drift"`
}

// Snapshot is a tracker's full quality picture.
type Snapshot struct {
	Time      time.Time      `json:"time"`
	Variant   string         `json:"variant"`
	Window    string         `json:"attribution_window"`
	Horizon   string         `json:"horizon"`
	K         int            `json:"k"`
	Lines     []LineSnapshot `json:"lines"`
	Unmatched uint64         `json:"unmatched_track_events"`
	Baseline  *Baseline      `json:"baseline,omitempty"`
}

// lineSnapshot assembles one line's snapshot.
func (t *Tracker) lineSnapshot(ln *Line) LineSnapshot {
	out := LineSnapshot{
		Variant:  ln.variant,
		Pipeline: ln.pipeline,
		Windows: []WindowStats{
			t.windowStats(ln, time.Minute),
			t.windowStats(ln, t.opts.Horizon),
		},
		Cumulative: CumulativeStats{
			Exposures:       ln.cumExposures.Load(),
			Clicks:          ln.cumClicks.Load(),
			Conversions:     ln.cumConversions.Load(),
			NonClicks:       ln.finNonclick.Load(),
			DuplicateClicks: ln.dupClicks.Load(),
			OfflistClicks:   ln.offlistClicks.Load(),
			LateClicks:      ln.lateClicks.Load(),
		},
		Coverage: t.coverage(ln),
		Drift:    t.lineDrift(ln),
	}
	out.RankClicks = make([]uint64, t.k)
	for i := range ln.rankCum {
		out.RankClicks[i] = ln.rankCum[i].Load()
	}
	out.RankDist = t.windowedRanks(ln, t.opts.Horizon).Dist()
	if pops := t.windowedSamples(&ln.popStamp, &ln.popBits, t.opts.Horizon); len(pops) > 0 {
		out.PopularityP50 = rank.Quantile(pops, 0.50)
		out.PopularityP90 = rank.Quantile(pops, 0.90)
		out.PopularityP99 = rank.Quantile(pops, 0.99)
	}
	if scores := t.windowedSamples(&ln.scoreStamp, &ln.scoreBits, t.opts.Horizon); len(scores) > 0 {
		out.TopScoreP50 = rank.Quantile(scores, 0.50)
		out.TopScoreP90 = rank.Quantile(scores, 0.90)
	}
	return out
}

// Snapshot assembles the full quality document, sweeping elapsed windows
// first so non-clicks are current.
func (t *Tracker) Snapshot() Snapshot {
	t.Sweep()
	snap := Snapshot{
		Time:      t.now(),
		Variant:   t.opts.Variant,
		Window:    t.opts.Window.String(),
		Horizon:   t.opts.Horizon.String(),
		K:         t.k,
		Unmatched: t.unmatched.Load(),
		Baseline:  t.opts.Baseline,
	}
	for _, ln := range t.snapshotLines() {
		snap.Lines = append(snap.Lines, t.lineSnapshot(ln))
	}
	return snap
}
