// Package serving implements Serenade's online component (§4): a stateful
// recommendation server that colocates the evolving user sessions with the
// update and recommendation requests.
//
// Each request carries a session identifier, the item the user just
// interacted with, and a consent flag. The server appends the item to the
// session state held in a machine-local TTL key-value store (internal/
// kvstore, the RocksDB stand-in), runs VMIS-kNN against the replicated
// session similarity index, applies the business rules (drop unavailable and
// adult items, and the item currently displayed), and responds with the
// ranked next-item recommendations — 21 of them in production, the number
// the shop frontend's UI slot requires.
package serving

import (
	"encoding/binary"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"serenade/internal/core"
	"serenade/internal/kvstore"
	"serenade/internal/metrics"
	"serenade/internal/obs"
	"serenade/internal/obs/quality"
	"serenade/internal/obs/slo"
	"serenade/internal/sessions"
	"serenade/internal/trending"
)

// DefaultRecommendations is the number of items the bol.com frontend slot
// renders per request.
const DefaultRecommendations = 21

// DefaultSessionTTL matches the production configuration: session state is
// dropped after 30 minutes of inactivity.
const DefaultSessionTTL = 30 * time.Minute

// maxStoredSessionLength bounds the session state kept per user; only the
// most recent items influence predictions, so older clicks are dropped.
const maxStoredSessionLength = 50

// DefaultIdempotencyTTL is how long a request's response is retained for
// duplicate suppression when Config.IdempotencyTTL is zero — comfortably
// past any client timeout+retry window.
const DefaultIdempotencyTTL = 2 * time.Minute

// maxDedupeEntries is the number of slots in the idempotency table; at
// capacity an insert evicts the oldest entry of its bucket.
const maxDedupeEntries = 1 << 16

// Config parameterises a Server.
type Config struct {
	// Params are the VMIS-kNN hyperparameters (production: m=500, k=500).
	Params core.Params
	// Recommendations is the response list length; 0 means
	// DefaultRecommendations.
	Recommendations int
	// HistoryLength caps how many of the session's most recent items feed
	// the prediction: the A/B test variants of §5.2.3 are HistoryLength=2
	// (serenade-hist) and HistoryLength=1 (serenade-recent). 0 uses the
	// full stored session (up to the algorithm's own cap).
	HistoryLength int
	// SessionTTL is the session-state inactivity expiry; 0 means
	// DefaultSessionTTL.
	SessionTTL time.Duration
	// StoreDir enables durable session storage when non-empty.
	StoreDir string
	// WALSync is the session store's WAL fsync policy; empty means
	// kvstore.SyncInterval (group commit). Only meaningful with StoreDir.
	WALSync kvstore.SyncPolicy
	// WALSyncInterval is the group-commit flush period for
	// kvstore.SyncInterval; zero means kvstore.DefaultSyncInterval.
	WALSyncInterval time.Duration
	// IdempotencyTTL is how long responses are retained for duplicate
	// suppression via the X-Idempotency-Key header: a retried request whose
	// first attempt already landed replays the stored response instead of
	// appending the click to the session again. The retention runs from the
	// first response; replays do not extend it. Zero means
	// DefaultIdempotencyTTL; negative disables deduplication.
	IdempotencyTTL time.Duration
	// Catalog supplies the business-rule item flags; nil disables
	// catalog-based filtering.
	Catalog *Catalog
	// FallbackToPopular pads short recommendation lists with the most
	// popular recommendable items, so the UI slot is always full even for
	// cold sessions on rare items.
	FallbackToPopular bool
	// ResultCacheSize enables the single-flight result cache: the maximum
	// number of retained predictions. Concurrent requests with an identical
	// kernel-truncated session tail coalesce onto one execution, and repeats
	// within ResultCacheTTL are answered from memory. 0 disables.
	ResultCacheSize int
	// ResultCacheTTL is the cached-prediction lifetime; 0 means
	// DefaultResultCacheTTL. Only meaningful with ResultCacheSize.
	ResultCacheTTL time.Duration
	// OwnIndex makes the server responsible for releasing index
	// generations: an index replaced by SwapIndex (and the active one on
	// Close) is closed — unmapping file-backed indexes — once its in-flight
	// requests drain. Leave it false when the index is shared with other
	// readers (e.g. cluster.Pool replicas over one index).
	OwnIndex bool
	// Trending, when non-nil, receives every click so the companion
	// "new and trending" slot (§4.1) can serve items the daily index has
	// not seen yet; it is exposed at GET /v1/trending.
	Trending *trending.Tracker
	// Now injects a clock for tests.
	Now func() time.Time

	// SlowQueryThreshold enables the sampled slow-query log: any request
	// slower than this gets its full stage breakdown logged through Logger.
	// 0 disables slow-query logging.
	SlowQueryThreshold time.Duration
	// SlowLogPerSecond caps slow-query log entries per second (default 5).
	SlowLogPerSecond int
	// TraceRingSize is the capacity of the recent-trace ring served at
	// GET /debug/traces; 0 means 256, negative disables the ring.
	TraceRingSize int
	// TraceSampleEvery keeps 1 in N traces in the ring (default 1 = all);
	// slow requests bypass sampling.
	TraceSampleEvery int
	// Logger receives structured serving logs (slow queries); nil uses
	// slog.Default().
	Logger *slog.Logger

	// SLOLatencyThreshold is the latency objective for the recommend
	// endpoint: requests slower than this burn the latency error budget
	// (the -slo-latency-p99 flag). 0 disables the latency objective; the
	// SLO engine still tracks the error-rate objective.
	SLOLatencyThreshold time.Duration
	// SLOLatencyBudget is the fraction of requests allowed to exceed
	// SLOLatencyThreshold (0.01 = a p99 objective). 0 means
	// slo.DefaultLatencyBudget.
	SLOLatencyBudget float64
	// SLOErrorBudget is the fraction of requests allowed to fail (the
	// -slo-error-budget flag). 0 disables the error-rate objective.
	SLOErrorBudget float64

	// Quality enables the online recommendation-quality loop: every response
	// is stamped with a recommendation id and logged as an exposure, POST
	// /track attributes click/conversion feedback back to it, and the
	// windowed quality gauges, serenade_quality_* metrics, GET /debug/quality
	// document and drift detector hang off the attributed stream. Nil
	// disables the loop (and the /track endpoint). Zero-valued fields take
	// quality defaults; CatalogSize and K default from the index and the
	// response slot, Now from Config.Now.
	Quality *quality.Options
}

// Server is one stateful recommendation server ("Serenade pod"). It is safe
// for concurrent use; VMIS-kNN query state is pooled per goroutine.
//
// The index is replaced atomically once per day when the offline job ships a
// fresh build (SwapIndex); in-flight requests finish against the index they
// started with.
type Server struct {
	cfg   Config
	store *kvstore.Store
	// replay maps keyed requests to already-sent response bodies (nil when
	// Config.IdempotencyTTL is negative). It suppresses the double-append a
	// client retry causes when the first attempt landed but its response was
	// lost.
	replay *replayTable
	// active holds the current index generation: the index plus a pool of
	// recommenders bound to it. Swapped wholesale on index rollover.
	active atomic.Pointer[indexGeneration]
	// genSeq numbers index generations; cache keys embed it so a rollover
	// implicitly invalidates every cached prediction.
	genSeq atomic.Uint64
	// cache is the single-flight result cache (nil unless
	// Config.ResultCacheSize > 0).
	cache *resultCache

	// requests and stages are contention-free striped histograms: recording
	// a latency must never become the scalability bottleneck it would be
	// behind a single mutex (§6's curves are drawn from these).
	requests *metrics.StripedHistogram
	stages   [obs.NumStages]*metrics.StripedHistogram
	tracer   *obs.Tracer
	slowLog  *obs.SlowLog
	reg      *obs.Registry
	// slo tracks the multi-window burn rates behind GET /debug/slo;
	// sloRecommend is the recommend endpoint's tracker, resolved once so the
	// per-request record stays allocation-free.
	slo          *slo.Engine
	sloRecommend *slo.Tracker
	// quality is the online quality tracker (nil unless Config.Quality). Its
	// three pipeline lines are resolved once at startup so the exposure
	// record on the hot path takes no lock and no map lookup.
	quality  *quality.Tracker
	qlKNN    *quality.Line
	qlPadded *quality.Line
	qlDepers *quality.Line
	// inflight counts requests between entry and span finish — the most
	// immediate overload signal in the health surface.
	inflight atomic.Int64
	// cacheWin tracks rolling (lookups, absorbed) counts for the health
	// signal's hit-ratio windows (nil without cache).
	cacheWin    *metrics.WindowedCounter
	errors      *obs.Counter
	errStore    *obs.Counter
	errInput    *obs.Counter
	padded      *obs.Counter
	depers      *obs.Counter
	idemReplays *obs.Counter
	swaps       atomic.Uint64
	// loadNanos is the duration of the most recent index load, reported by
	// the embedding binary via RecordIndexLoad and exported as
	// serenade_index_load_seconds.
	loadNanos atomic.Int64
}

// indexGeneration ties a recommender pool to the index it queries, so a
// request never mixes state across an index swap. Generations are
// reference-counted: a request acquires the active generation for its
// duration, and a generation replaced by SwapIndex is retired — its index
// closed (munmapped, for file-backed indexes) only after the last in-flight
// request releases it, and only when the server owns the index
// (Config.OwnIndex).
type indexGeneration struct {
	idx *core.Index
	// seq is the generation's rollover sequence number, embedded in result
	// cache keys so entries die with their generation.
	seq uint64
	// popular ranks items by document frequency, the fallback order.
	popular []core.ScoredItem
	pool    sync.Pool
	// recBytes is one pooled recommender's footprint, computed once at
	// generation build so Stats and the metrics scrape never need to pull
	// a recommender out of the pool.
	recBytes int64

	inflight atomic.Int64
	retired  atomic.Bool
	ownIdx   bool
}

func newGeneration(idx *core.Index, params core.Params, fallback, own bool) (*indexGeneration, error) {
	proto, err := core.NewRecommender(idx, params)
	if err != nil {
		return nil, err
	}
	g := &indexGeneration{idx: idx, recBytes: proto.MemoryFootprint(), ownIdx: own}
	g.pool.New = func() any { return proto.Clone() }
	if fallback {
		g.popular = popularItems(idx)
	}
	return g, nil
}

// acquireGen pins the active generation for the duration of a request: the
// generation's index cannot be closed until the matching release. The
// increment-then-recheck loop closes the race with a concurrent SwapIndex —
// if the generation was replaced between the load and the increment, its
// retirement may already have seen a zero count, so the acquisition is
// abandoned and retried against the new active generation. (Touching the
// generation struct itself is always safe: it is heap memory the GC keeps
// alive; only the index's mapped arena has a manual lifetime.)
func (s *Server) acquireGen() *indexGeneration {
	for {
		g := s.active.Load()
		g.inflight.Add(1)
		if s.active.Load() == g {
			return g
		}
		g.release()
	}
}

// release drops a request's pin; the last release of a retired generation
// closes its index. Index.Close is idempotent, so the benign race where both
// the releasing request and the retiring swap observe a drained generation
// resolves to a single close.
func (g *indexGeneration) release() {
	if g.inflight.Add(-1) == 0 && g.retired.Load() {
		g.drained()
	}
}

// retire marks a generation as replaced; if no request holds it the index is
// closed immediately, otherwise the last release closes it.
func (g *indexGeneration) retire() {
	g.retired.Store(true)
	if g.inflight.Load() == 0 {
		g.drained()
	}
}

func (g *indexGeneration) drained() {
	if g.ownIdx {
		g.idx.Close()
	}
}

// popularItems ranks the catalog by document frequency (most sessions
// first), ties toward smaller item ids.
func popularItems(idx *core.Index) []core.ScoredItem {
	out := make([]core.ScoredItem, 0, idx.NumItems())
	for i := 0; i < idx.NumItems(); i++ {
		item := sessions.ItemID(i)
		if df := idx.DF(item); df > 0 {
			out = append(out, core.ScoredItem{Item: item, Score: float64(df)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Item < out[b].Item
	})
	const maxFallback = 512
	if len(out) > maxFallback {
		out = out[:maxFallback:maxFallback]
	}
	return out
}

// NewServer creates a serving instance against a (replicated, immutable)
// session similarity index.
func NewServer(idx *core.Index, cfg Config) (*Server, error) {
	if cfg.Recommendations <= 0 {
		cfg.Recommendations = DefaultRecommendations
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = DefaultSessionTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	gen, err := newGeneration(idx, cfg.Params, cfg.FallbackToPopular, cfg.OwnIndex)
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	store, err := kvstore.Open(kvstore.Options{
		Dir:          cfg.StoreDir,
		TTL:          cfg.SessionTTL,
		Sync:         cfg.WALSync,
		SyncInterval: cfg.WALSyncInterval,
		Now:          cfg.Now,
	})
	if err != nil {
		return nil, fmt.Errorf("serving: opening session store: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		store:    store,
		requests: metrics.NewStripedHistogram(),
	}
	if cfg.IdempotencyTTL >= 0 {
		ttl := cfg.IdempotencyTTL
		if ttl == 0 {
			ttl = DefaultIdempotencyTTL
		}
		s.replay = newReplayTable(maxDedupeEntries, ttl, cfg.Now)
	}
	for i := range s.stages {
		s.stages[i] = metrics.NewStripedHistogram()
	}
	if cfg.SlowQueryThreshold > 0 {
		s.slowLog = obs.NewSlowLog(cfg.Logger, cfg.SlowQueryThreshold, cfg.SlowLogPerSecond)
	}
	s.tracer = obs.NewTracer(obs.TracerOptions{
		RingSize:    cfg.TraceRingSize,
		SampleEvery: cfg.TraceSampleEvery,
		SlowLog:     s.slowLog,
	})
	s.slo = slo.NewEngine(slo.Objective{
		LatencyThreshold: cfg.SLOLatencyThreshold,
		LatencyBudget:    cfg.SLOLatencyBudget,
		ErrorBudget:      cfg.SLOErrorBudget,
	}, cfg.Now)
	s.sloRecommend = s.slo.Tracker("recommend")
	if s.slowLog != nil {
		// Every slow-query line carries the burn picture it contributed to.
		s.slowLog.SetBurnState(s.slo.Burning)
	}
	if cfg.Quality != nil {
		q := *cfg.Quality
		if q.CatalogSize == 0 {
			q.CatalogSize = idx.NumItems()
		}
		if q.K <= 0 {
			q.K = cfg.Recommendations
		}
		if q.Now == nil {
			q.Now = cfg.Now
		}
		s.quality = quality.New(q)
		s.qlKNN = s.quality.Line("knn")
		s.qlPadded = s.quality.Line("knn+popular")
		s.qlDepers = s.quality.Line("depersonalised")
		if s.slowLog != nil {
			// ... and the quality-drift verdict, so a slow query during a
			// quality incident is recognisable as part of one picture.
			s.slowLog.SetQualityState(func() (bool, string) {
				st := s.quality.Drift()
				return st.Drifting, st.Reason
			})
		}
	}
	if cfg.ResultCacheSize > 0 {
		s.cache = newResultCache(cfg.ResultCacheSize, cfg.ResultCacheTTL, cfg.Now)
		s.cacheWin = metrics.NewWindowedCounter(time.Minute, cfg.Now)
	}
	s.buildRegistry()
	s.active.Store(gen)
	return s, nil
}

// buildRegistry wires every serving signal into the Prometheus registry:
// request/error/fallback counters, session-store op counters, index and
// capacity gauges, the request and per-stage latency histograms, and the Go
// runtime series — enough that the Figure 3(b)/3(c) curves fall out of a
// plain scrape of /metrics.prom.
func (s *Server) buildRegistry() {
	r := obs.NewRegistry()
	s.reg = r

	s.errors = r.Counter("serenade_errors_total", "Requests that failed.")
	s.errStore = r.Counter("serenade_errors_by_class_total", "Failed requests by error class.", "class", "store")
	s.errInput = r.Counter("serenade_errors_by_class_total", "Failed requests by error class.", "class", "bad_request")
	s.padded = r.Counter("serenade_fallback_padded_total", "Responses padded with popularity fallback items.")
	s.depers = r.Counter("serenade_depersonalised_total", "Requests served without consent (history discarded).")
	s.idemReplays = r.Counter("serenade_idempotent_replays_total", "Duplicate requests answered from the idempotency table without reprocessing.")

	r.CounterFunc("serenade_requests_total", "Recommendation requests served.",
		func() float64 { return float64(s.requests.Count()) })
	r.CounterFunc("serenade_index_swaps_total", "Index rollovers since start.",
		func() float64 { return float64(s.swaps.Load()) })

	r.GaugeFunc("serenade_inflight_requests", "Requests currently being served.",
		func() float64 { return float64(s.inflight.Load()) })
	if s.slowLog != nil {
		r.CounterFunc("serenade_slowlog_entries_total", "Slow-query log lines emitted.",
			func() float64 { return float64(s.slowLog.Logged()) })
		r.CounterFunc("serenade_slowlog_suppressed_total", "Slow-query log lines dropped by the per-second rate limit.",
			func() float64 { return float64(s.slowLog.SuppressedTotal()) })
	}
	s.slo.RegisterMetrics(r)
	if s.quality != nil {
		s.quality.RegisterMetrics(r)
	}

	r.GaugeFunc("serenade_active_sessions", "Evolving sessions currently stored.",
		func() float64 { return float64(s.store.Len()) })
	r.GaugeFunc("serenade_index_sessions", "Historical sessions in the active index.",
		func() float64 { return float64(s.active.Load().idx.NumSessions()) })
	r.GaugeFunc("serenade_index_items", "Distinct items in the active index.",
		func() float64 { return float64(s.active.Load().idx.NumItems()) })
	r.GaugeFunc("serenade_index_bytes", "Estimated footprint of the active immutable index.",
		func() float64 { return float64(s.active.Load().idx.MemoryFootprint()) })
	r.GaugeFunc("serenade_index_heap_bytes", "Heap-resident (GC-scanned) portion of the active index.",
		func() float64 { heap, _ := s.active.Load().idx.MemoryBreakdown(); return float64(heap) })
	r.GaugeFunc("serenade_index_mmap_bytes", "File-backed mmap portion of the active index (page cache, reclaimable).",
		func() float64 { _, mapped := s.active.Load().idx.MemoryBreakdown(); return float64(mapped) })
	r.GaugeFunc("serenade_index_load_seconds", "Duration of the most recent index load (startup or rollover).",
		func() float64 { return float64(s.loadNanos.Load()) / 1e9 })
	r.GaugeFunc("serenade_recommender_bytes", "Per-goroutine footprint of one pooled query kernel.",
		func() float64 { return float64(s.active.Load().recBytes) })

	for _, c := range []struct {
		name, help string
		read       func(kvstore.Metrics) uint64
	}{
		{"serenade_store_gets_total", "Session-store reads.", func(m kvstore.Metrics) uint64 { return m.Gets }},
		{"serenade_store_hits_total", "Session-store reads that found live state.", func(m kvstore.Metrics) uint64 { return m.Hits }},
		{"serenade_store_puts_total", "Session-store writes.", func(m kvstore.Metrics) uint64 { return m.Puts }},
		{"serenade_store_deletes_total", "Session-store deletes.", func(m kvstore.Metrics) uint64 { return m.Deletes }},
		{"serenade_store_evictions_total", "Session entries dropped by TTL expiry.", func(m kvstore.Metrics) uint64 { return m.Evictions }},
		{"serenade_store_wal_bytes_total", "Bytes appended to the session-store WAL.", func(m kvstore.Metrics) uint64 { return m.WALBytes }},
		{"serenade_store_fsyncs_total", "Session-store WAL fsync calls.", func(m kvstore.Metrics) uint64 { return m.Fsyncs }},
		{"serenade_store_fsync_batch_records_total", "WAL records made durable by group-commit fsyncs (ratio to fsyncs = mean batch size).", func(m kvstore.Metrics) uint64 { return m.FsyncBatchRecords }},
		{"serenade_store_unknown_wal_ops_total", "WAL replay stops at records with an unrecognized opcode.", func(m kvstore.Metrics) uint64 { return m.UnknownWALOps }},
		{"serenade_store_snapshot_fallbacks_total", "Recoveries that rejected a corrupt snapshot and replayed the WAL alone.", func(m kvstore.Metrics) uint64 { return m.SnapshotFallbacks }},
	} {
		read := c.read
		r.CounterFunc(c.name, c.help, func() float64 { return float64(read(s.store.Metrics())) })
	}
	r.CounterFunc("serenade_store_fsync_seconds_total", "Total time spent in WAL fsyncs (ratio to fsyncs = mean fsync latency).",
		func() float64 { return float64(s.store.Metrics().FsyncNanos) / 1e9 })
	if s.replay != nil {
		r.GaugeFunc("serenade_idempotency_entries", "Idempotency table slots holding a response (live, or expired and awaiting reuse).",
			func() float64 { return float64(s.replay.occupied.Load()) })
	}

	if s.cache != nil {
		r.CounterFunc("serenade_result_cache_hits_total", "Predictions answered from a completed cache entry.",
			func() float64 { return float64(s.cache.hits.Load()) })
		r.CounterFunc("serenade_result_cache_misses_total", "Predictions that had to execute the kernel (cache leaders).",
			func() float64 { return float64(s.cache.misses.Load()) })
		r.CounterFunc("serenade_result_cache_coalesced_total", "Predictions that waited on a concurrent identical request (single-flight).",
			func() float64 { return float64(s.cache.coalesced.Load()) })
		r.CounterFunc("serenade_result_cache_evictions_total", "Cache entries dropped by TTL expiry or the size bound.",
			func() float64 { return float64(s.cache.evictions.Load()) })
		r.GaugeFunc("serenade_result_cache_entries", "Predictions currently cached.",
			func() float64 { return float64(s.cache.len()) })
		for _, w := range []time.Duration{10 * time.Second, time.Minute} {
			w := w
			r.GaugeFunc("serenade_result_cache_hit_ratio", "Fraction of recent predictions absorbed by the cache (hit or coalesced), per rolling window.",
				func() float64 {
					lookups, absorbed, _ := s.cacheWin.Sum(w)
					if lookups == 0 {
						return 0
					}
					return float64(absorbed) / float64(lookups)
				}, "window", w.String())
		}
	}
	r.Histogram("serenade_request_latency_seconds", "End-to-end request latency.", s.requests)
	for i := range s.stages {
		r.Histogram("serenade_stage_latency_seconds", "Per-stage request latency.",
			s.stages[i], "stage", obs.Stage(i).String())
	}
	r.RegisterGoRuntime()
}

// Registry exposes the server's metric registry (for embedding binaries
// that add their own series next to the serving ones).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer exposes the server's request tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// SLO exposes the burn-rate engine behind GET /debug/slo (for embedding
// binaries and the load harness).
func (s *Server) SLO() *slo.Engine { return s.slo }

// Quality exposes the online quality tracker (nil when disabled), for
// embedding binaries and the load harness.
func (s *Server) Quality() *quality.Tracker { return s.quality }

// TrackRequest is one click/conversion feedback event for POST /track: the
// frontend reports which recommended item the user acted on, referencing
// the recommendation id the response carried.
type TrackRequest struct {
	RecommendationID uint64          `json:"recommendation_id"`
	Item             sessions.ItemID `json:"item_id"`
	// Event is "click" (default when empty) or "conversion".
	Event string `json:"event,omitempty"`
}

// TrackResponse reports how the feedback event was attributed.
type TrackResponse struct {
	Outcome  string `json:"outcome"`
	Rank     int    `json:"rank,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Pipeline string `json:"pipeline,omitempty"`
}

// Track attributes one feedback event to its exposure. It is the code path
// behind POST /track and is also called directly by the in-process click
// harness. The boolean result is false when quality telemetry is disabled.
func (s *Server) Track(req TrackRequest) (TrackResponse, bool) {
	if s.quality == nil {
		return TrackResponse{}, false
	}
	at := s.quality.Attribute(req.RecommendationID, req.Item, req.Event == "conversion")
	return TrackResponse{Outcome: at.Outcome, Rank: at.Rank, Variant: at.Variant, Pipeline: at.Pipeline}, true
}

// Health assembles the replica's overload telemetry snapshot: in-flight
// requests, cache effectiveness, burn state, and runtime pressure. It is the
// payload of GET /debug/health and the per-backend sections of the cluster
// proxy's /proxy/health.
func (s *Server) Health() obs.HealthSignal {
	h := obs.HealthSignal{
		Time:     s.cfg.Now(),
		InFlight: s.inflight.Load(),
	}
	if s.cache != nil {
		if lookups, absorbed, _ := s.cacheWin.Sum(10 * time.Second); lookups > 0 {
			h.CacheHitRatio10s = float64(absorbed) / float64(lookups)
		}
		lookups, absorbed, _ := s.cacheWin.Sum(time.Minute)
		h.CacheLookups1m = lookups
		if lookups > 0 {
			h.CacheHitRatio1m = float64(absorbed) / float64(lookups)
		}
	}
	h.BurnRate, h.FastBurn, h.SlowBurn = s.slo.Burning()
	if s.quality != nil {
		d := s.quality.Drift()
		h.QualityDrift = d.Drifting
		h.QualityDriftReason = d.Reason
		h.QualityRankTV = d.RankTV
		h.QualityMRRRatio = d.MRRRatio
		h.QualityCTR = d.CTR
	}
	h.FillRuntime()
	return h
}

// FlushSlowLog emits the slow-query log's final summary; serving binaries
// call it during graceful shutdown.
func (s *Server) FlushSlowLog() { s.tracer.FlushSlowLog() }

// SwapIndex atomically replaces the session similarity index — the daily
// rollover after the offline job produces a fresh build. Evolving session
// state is unaffected; requests already executing complete against the old
// index, which (when Config.OwnIndex is set) is closed — unmapping a
// file-backed index — only once those requests drain.
func (s *Server) SwapIndex(idx *core.Index) error {
	gen, err := newGeneration(idx, s.cfg.Params, s.cfg.FallbackToPopular, s.cfg.OwnIndex)
	if err != nil {
		return fmt.Errorf("serving: swapping index: %w", err)
	}
	gen.seq = s.genSeq.Add(1)
	old := s.active.Swap(gen)
	s.swaps.Add(1)
	if s.cache != nil {
		// Generation-tagged keys already make stale entries unreachable;
		// purging eagerly releases their memory at rollover time.
		s.cache.purge()
	}
	old.retire()
	return nil
}

// RecordIndexLoad reports how long the most recent index load took (initial
// startup load or a rollover reload), exported as
// serenade_index_load_seconds.
func (s *Server) RecordIndexLoad(d time.Duration) {
	s.loadNanos.Store(int64(d))
}

// Index returns the currently active index.
func (s *Server) Index() *core.Index { return s.active.Load().idx }

// Close releases the session store and (when the server owns its index,
// Config.OwnIndex) the active index generation.
func (s *Server) Close() error {
	err := s.store.Close()
	s.active.Load().retire()
	return err
}

// Request is one session update + recommendation request from the frontend.
type Request struct {
	// SessionKey identifies the user session (an opaque cookie value).
	SessionKey string `json:"session_id"`
	// Item is the item the user just interacted with (the product detail
	// page being viewed).
	Item sessions.ItemID `json:"item_id"`
	// Consent reports whether the user allows their session history to be
	// used. Without consent the prediction is depersonalised: it uses only
	// the currently displayed item, and any stored history is discarded.
	Consent bool `json:"consent"`
}

// Response is the recommendation payload returned to the frontend.
type Response struct {
	Items []core.ScoredItem `json:"items"`
	// SessionLength is the stored session length after this update
	// (1 for depersonalised requests).
	SessionLength int `json:"session_length"`
	// RecommendationID identifies this exposure for POST /track click
	// attribution; 0 when quality telemetry is disabled.
	RecommendationID uint64 `json:"recommendation_id,omitempty"`
}

// Recommend handles one request end to end: session state update, VMIS-kNN
// prediction, business rules. It is the code path behind the HTTP handler
// and is also called directly by the in-process load and A/B harnesses.
func (s *Server) Recommend(req Request) (Response, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	sc := getScratch()
	defer putScratch(sc)
	sp := s.tracer.Start("recommend")
	resp, err := s.recommend(req, sp, sc)
	s.observeSpan(sp, err)
	// The pipeline's item list lives in the scratch; callers of the public
	// API own their Response, so hand them a private copy.
	if resp.Items != nil {
		resp.Items = append(make([]core.ScoredItem, 0, len(resp.Items)), resp.Items...)
	}
	return resp, err
}

// recommend is the traced request body. Stage attribution uses contiguous
// cuts — every segment between span start and the last cut lands in some
// stage — so a trace's stage durations account for (nearly all of) its
// total and tail latency is attributable, not mysterious.
func (s *Server) recommend(req Request, sp *obs.Span, sc *reqScratch) (Response, error) {
	if s.cfg.Trending != nil {
		s.cfg.Trending.Observe(req.Item, 1)
	}
	var evolving []sessions.ItemID
	if req.Consent {
		evolving = s.updateSession(req.SessionKey, req.Item, sc)
	} else {
		// Depersonalisation (§4.2): forget stored history immediately and
		// predict from the displayed item alone.
		s.depers.Inc()
		if err := s.store.Delete(req.SessionKey); err != nil {
			sp.Cut(obs.StageStore)
			return Response{}, err
		}
		evolving = append(sc.session[:0], req.Item)
		sc.session = evolving
	}
	sp.Cut(obs.StageStore)

	predictFrom := evolving
	if s.cfg.HistoryLength > 0 && len(predictFrom) > s.cfg.HistoryLength {
		predictFrom = predictFrom[len(predictFrom)-s.cfg.HistoryLength:]
	}

	// Over-fetch so that business-rule filtering can still fill the slot.
	slot := 2*s.cfg.Recommendations + 1

	raw := s.predict(sp, predictFrom, slot, sc)
	out := s.applyRules(req.Item, raw)
	if len(out) > s.cfg.Recommendations {
		out = out[:s.cfg.Recommendations]
	}
	gen := s.active.Load()
	padApplied := false
	if len(out) < s.cfg.Recommendations && len(gen.popular) > 0 {
		padded := s.padWithPopular(out, req.Item, gen.popular)
		if len(padded) > len(out) {
			s.padded.Inc()
			padApplied = true
		}
		out = padded
	}
	resp := Response{Items: out, SessionLength: len(evolving)}
	if s.quality != nil {
		// The exposure pipeline is the path that shaped the list: consent
		// denial dominates (the whole prediction was depersonalised), then
		// popularity padding, then the plain kNN path.
		ln := s.qlKNN
		if !req.Consent {
			ln = s.qlDepers
		} else if padApplied {
			ln = s.qlPadded
		}
		resp.RecommendationID = s.quality.RecordExposure(ln, out, evolving, sp.RequestID)
	}
	sp.Cut(obs.StageFilter)

	return resp, nil
}

// predict computes the raw (uncut, pre-business-rules) prediction into
// sc.items, which the caller owns and may edit in place. With the result
// cache enabled the lookup wraps the kernel run: hits and coalesced waits copy
// the shared entry and bill the lookup to score, while leaders run the kernel
// and publish its output. It annotates sp with the cache outcome and records
// the lookup into the rolling hit-ratio window.
func (s *Server) predict(sp *obs.Span, predictFrom []sessions.ItemID, slot int, sc *reqScratch) []core.ScoredItem {
	if s.cache == nil {
		out, _ := s.runKernel(sp, predictFrom, slot, sc)
		return out
	}
	genSeq := s.active.Load().seq
	key := appendCacheKey(sc.key[:0], s.kernelTail(predictFrom), slot, genSeq)
	sc.key = key
	e, outcome := s.cache.acquire(key)
	s.cacheWin.Add(1, boolLane(outcome != cacheLead), 0)
	if outcome != cacheLead {
		if outcome == cacheHit {
			sp.AddFlags(obs.FlagCacheHit)
		} else {
			sp.AddFlags(obs.FlagCacheWaiter)
		}
		<-e.done
		if e.items == nil {
			// The leader abandoned the entry; compute independently.
			out, _ := s.runKernel(sp, predictFrom, slot, sc)
			return out
		}
		out := append(sc.items[:0], e.items...)
		sc.items = out
		sp.Cut(obs.StageScore)
		return out
	}
	sp.AddFlags(obs.FlagCacheMiss | obs.FlagCacheLeader)
	filled := false
	defer func() {
		if !filled {
			s.cache.abandon(key, e)
		}
	}()
	out, usedSeq := s.runKernel(sp, predictFrom, slot, sc)
	// A rollover between key construction and execution means the value
	// belongs to a different generation than the key names: publish it to
	// the waiters but do not retain it.
	s.cache.fill(key, e, out, usedSeq == genSeq)
	filled = true
	sp.Cut(obs.StageScore)
	return out
}

// boolLane converts a flag to a windowed-counter lane increment.
func boolLane(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// runKernel is the one place a request runs VMIS-kNN: against a pooled
// recommender of the active generation, cutting candidates after the
// neighbour search and score after item scoring. The prediction is copied out
// of the recommender's reusable buffers into sc.items before the recommender
// returns to the pool; the second result is the generation that served it.
func (s *Server) runKernel(sp *obs.Span, predictFrom []sessions.ItemID, slot int, sc *reqScratch) ([]core.ScoredItem, uint64) {
	gen := s.acquireGen()
	rec := gen.pool.Get().(*core.Recommender)
	neighbors := rec.NeighborSessions(predictFrom)
	sp.Cut(obs.StageCandidates)
	raw := rec.ScoreNeighbors(neighbors, slot)
	sp.Cut(obs.StageScore)
	out := append(sc.items[:0], raw...)
	sc.items = out
	gen.pool.Put(rec)
	seq := gen.seq
	gen.release()
	return out, seq
}

// kernelTail truncates an evolving session to the items the kernel actually
// uses — the cache-key normalisation that lets two long sessions with equal
// recent tails share an entry.
func (s *Server) kernelTail(items []sessions.ItemID) []sessions.ItemID {
	maxLen := s.cfg.Params.MaxSessionLength
	if maxLen <= 0 {
		maxLen = core.DefaultMaxSessionLength
	}
	if len(items) > maxLen {
		return items[len(items)-maxLen:]
	}
	return items
}

// observeSpan closes a request span: it freezes the total, feeds the
// request and per-stage histograms and the SLO tracker, counts errors, and
// hands the span to the tracer (ring sampling, tail retention, slow-query
// log). The span must not be used afterwards.
func (s *Server) observeSpan(sp *obs.Span, err error) {
	if err != nil {
		sp.SetError("store")
		s.errors.Inc()
		s.errStore.Inc()
	}
	sp.End()
	s.requests.Record(sp.Total)
	s.sloRecommend.Record(sp.Total, err != nil)
	for i, d := range sp.Stages {
		if d > 0 {
			s.stages[i].Record(d)
		}
	}
	s.tracer.Finish(sp)
}

// updateSession appends the item to the stored session and returns the new
// evolving session, backed by the request scratch. Both kvstore round trips
// run through reused buffers: the read appends into the scratch, the write's
// value is copied by the store.
func (s *Server) updateSession(key string, item sessions.ItemID, sc *reqScratch) []sessions.ItemID {
	evolving := sc.session[:0]
	if raw, ok := s.store.GetAppend(key, sc.kvBuf[:0]); ok {
		sc.kvBuf = raw
		evolving = appendSession(evolving, raw)
	}
	evolving = append(evolving, item)
	if len(evolving) > maxStoredSessionLength {
		// Slide in place instead of reslicing forward, so the scratch's
		// backing array does not creep and reallocate over many requests.
		n := copy(evolving, evolving[len(evolving)-maxStoredSessionLength:])
		evolving = evolving[:n]
	}
	sc.session = evolving
	sc.sessEnc = appendSessionEnc(sc.sessEnc[:0], evolving)
	// A failed write only loses session context for the next request —
	// the paper's design explicitly tolerates session-state loss — so the
	// current prediction proceeds regardless.
	_ = s.store.Put(key, sc.sessEnc)
	return evolving
}

// padWithPopular appends popularity-ranked fallback items (score zero, so
// ranking positions remain honest) until the slot is full. Dedup is a linear
// scan over the list under construction — it never exceeds the configured
// slot (a couple dozen items), where a scan beats allocating a set.
func (s *Server) padWithPopular(out []core.ScoredItem, current sessions.ItemID, popular []core.ScoredItem) []core.ScoredItem {
	for _, p := range popular {
		if len(out) >= s.cfg.Recommendations {
			break
		}
		if p.Item == current {
			continue
		}
		dup := false
		for _, it := range out {
			if it.Item == p.Item {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if s.cfg.Catalog != nil && !s.cfg.Catalog.Recommendable(p.Item) {
			continue
		}
		out = append(out, core.ScoredItem{Item: p.Item, Score: 0})
	}
	return out
}

// Explain attributes a recommended item's score to the neighbour sessions
// behind it, using the stored evolving session for key. The second result
// is false when there is no session state or the item receives no score.
func (s *Server) Explain(key string, item sessions.ItemID) (core.Explanation, bool) {
	evolving, ok := s.SessionState(key)
	if !ok {
		return core.Explanation{Item: item}, false
	}
	if s.cfg.HistoryLength > 0 && len(evolving) > s.cfg.HistoryLength {
		evolving = evolving[len(evolving)-s.cfg.HistoryLength:]
	}
	gen := s.acquireGen()
	defer gen.release()
	rec := gen.pool.Get().(*core.Recommender)
	ex, ok := rec.Explain(evolving, item)
	gen.pool.Put(rec)
	return ex, ok
}

// applyRules drops the currently displayed item and anything the catalog
// flags as unavailable or adult-only.
func (s *Server) applyRules(current sessions.ItemID, recs []core.ScoredItem) []core.ScoredItem {
	out := recs[:0]
	for _, r := range recs {
		if r.Item == current {
			continue
		}
		if s.cfg.Catalog != nil && !s.cfg.Catalog.Recommendable(r.Item) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// SessionState returns the stored evolving session for a key, for debugging
// endpoints and tests.
func (s *Server) SessionState(key string) ([]sessions.ItemID, bool) {
	raw, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	return decodeSession(raw), true
}

// SweepSessions evicts expired session state, mirroring the 30-minute
// RocksDB TTL; serving machines call it periodically. Elapsed attribution
// windows (exposures finalising as non-clicks) ride along.
func (s *Server) SweepSessions() int {
	if s.quality != nil {
		s.quality.Sweep()
	}
	return s.store.Sweep()
}

// LatencyHistogram returns a snapshot of the server-side request latency
// distribution. (It is a merged copy of the striped recording state: safe
// to query at leisure, but later requests require a fresh snapshot.)
func (s *Server) LatencyHistogram() *metrics.Histogram { return s.requests.Snapshot() }

// StageStats is one pipeline stage's latency summary in Stats.
type StageStats struct {
	Stage       string        `json:"stage"`
	Count       uint64        `json:"count"`
	MeanLatency time.Duration `json:"mean_latency_ns"`
	P90Latency  time.Duration `json:"p90_latency_ns"`
	P995Latency time.Duration `json:"p995_latency_ns"`
}

// Stats summarises the server for the /metrics endpoint.
type Stats struct {
	Requests       uint64        `json:"requests"`
	Errors         uint64        `json:"errors"`
	MeanLatency    time.Duration `json:"mean_latency_ns"`
	P90Latency     time.Duration `json:"p90_latency_ns"`
	P995Latency    time.Duration `json:"p995_latency_ns"`
	ActiveSessions int           `json:"active_sessions"`
	StoreEvictions uint64        `json:"store_evictions"`
	IndexSessions  int           `json:"index_sessions"`
	IndexItems     int           `json:"index_items"`
	IndexSwaps     uint64        `json:"index_swaps"`
	// IndexBytes is the estimated footprint of the shared immutable index,
	// split into IndexHeapBytes (GC-scanned heap) and IndexMmapBytes
	// (file-backed pages of an mmap-loaded index — resident but
	// reclaimable, and never scanned by the collector).
	// RecommenderBytes is the per-goroutine footprint of one pooled query
	// kernel (candidate buffer, flat score array — O(M + numItems)).
	// Capacity planning: total ≈ IndexBytes + pooled recommenders ×
	// RecommenderBytes per pod.
	IndexBytes       int64 `json:"index_bytes"`
	IndexHeapBytes   int64 `json:"index_heap_bytes"`
	IndexMmapBytes   int64 `json:"index_mmap_bytes"`
	RecommenderBytes int64 `json:"recommender_bytes"`
	// Result cache counters (all zero when the cache is disabled). Hits are
	// answered from memory, misses executed the kernel as cache leaders, and
	// coalesced requests waited on a concurrent identical request.
	CacheHits      uint64 `json:"cache_hits,omitempty"`
	CacheMisses    uint64 `json:"cache_misses,omitempty"`
	CacheCoalesced uint64 `json:"cache_coalesced,omitempty"`
	CacheEntries   int    `json:"cache_entries,omitempty"`
	// Stages breaks the request latency down by pipeline stage (stages
	// with no observations are omitted), attributing tail latency to
	// session-store access vs index lookup vs scoring vs serialization.
	Stages []StageStats `json:"stages,omitempty"`
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	gen := s.active.Load()
	heapBytes, mmapBytes := gen.idx.MemoryBreakdown()
	lat := s.requests.Snapshot()
	st := Stats{
		Requests:         lat.Count(),
		Errors:           s.errors.Value(),
		MeanLatency:      lat.Mean(),
		P90Latency:       lat.Percentile(90),
		P995Latency:      lat.Percentile(99.5),
		ActiveSessions:   s.store.Len(),
		StoreEvictions:   s.store.Metrics().Evictions,
		IndexSessions:    gen.idx.NumSessions(),
		IndexItems:       gen.idx.NumItems(),
		IndexSwaps:       s.swaps.Load(),
		IndexBytes:       heapBytes + mmapBytes,
		IndexHeapBytes:   heapBytes,
		IndexMmapBytes:   mmapBytes,
		RecommenderBytes: gen.recBytes,
	}
	if s.cache != nil {
		st.CacheHits = s.cache.hits.Load()
		st.CacheMisses = s.cache.misses.Load()
		st.CacheCoalesced = s.cache.coalesced.Load()
		st.CacheEntries = s.cache.len()
	}
	for i := range s.stages {
		snap := s.stages[i].Snapshot()
		if snap.Count() == 0 {
			continue
		}
		st.Stages = append(st.Stages, StageStats{
			Stage:       obs.Stage(i).String(),
			Count:       snap.Count(),
			MeanLatency: snap.Mean(),
			P90Latency:  snap.Percentile(90),
			P995Latency: snap.Percentile(99.5),
		})
	}
	return st
}

// appendSessionEnc serialises an evolving session as varint-encoded item
// ids, appending to dst so hot callers reuse one buffer.
func appendSessionEnc(dst []byte, items []sessions.ItemID) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, it := range items {
		n := binary.PutUvarint(tmp[:], uint64(it))
		dst = append(dst, tmp[:n]...)
	}
	return dst
}

// encodeSession is the allocating form of appendSessionEnc.
func encodeSession(items []sessions.ItemID) []byte {
	return appendSessionEnc(make([]byte, 0, len(items)*3), items)
}

// appendSession decodes varint-encoded session state, appending to dst.
func appendSession(dst []sessions.ItemID, raw []byte) []sessions.ItemID {
	for len(raw) > 0 {
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			return dst // torn state: keep the prefix
		}
		dst = append(dst, sessions.ItemID(v))
		raw = raw[n:]
	}
	return dst
}

// decodeSession is the allocating form of appendSession.
func decodeSession(raw []byte) []sessions.ItemID {
	return appendSession(nil, raw)
}
