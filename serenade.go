// Package serenade is a session-based recommender system: a Go
// implementation of "Serenade — Low-Latency Session-Based Recommendation in
// e-Commerce at Scale" (SIGMOD 2022).
//
// The package is the public facade over the library's internals. The
// typical lifecycle mirrors the paper's production deployment:
//
//	ds, _ := serenade.Generate(serenade.SmallDataset(1)) // or LoadCSV
//	idx, _ := serenade.BuildIndex(ds, 500)               // offline, daily
//	rec, _ := serenade.New(idx, serenade.Params{M: 500, K: 100})
//	items := rec.Recommend([]serenade.ItemID{42, 7}, 21) // online, per click
//
// For serving, NewServer wraps an index in a stateful HTTP application that
// maintains evolving user sessions, and NewPool shards sessions over
// several such replicas with sticky routing.
package serenade

import (
	"fmt"
	"runtime"
	"time"

	"serenade/internal/cluster"
	"serenade/internal/compressed"
	"serenade/internal/core"
	"serenade/internal/dataflow"
	"serenade/internal/incremental"
	"serenade/internal/index"
	"serenade/internal/kvstore"
	"serenade/internal/legacy"
	"serenade/internal/metrics"
	"serenade/internal/obs/quality"
	"serenade/internal/serving"
	"serenade/internal/sessions"
	"serenade/internal/synth"
	"serenade/internal/trending"
)

// Core data-model types.
type (
	// ItemID identifies a catalog item (dense small integers).
	ItemID = sessions.ItemID
	// SessionID identifies a historical session.
	SessionID = sessions.SessionID
	// Click is one (session, item, timestamp) interaction.
	Click = sessions.Click
	// Session is a time-ordered sequence of clicks by one user.
	Session = sessions.Session
	// Dataset is a click log with its grouped session view.
	Dataset = sessions.Dataset
	// DatasetStats are the Table 1 statistics of a dataset.
	DatasetStats = sessions.Stats
)

// Algorithm types.
type (
	// Index is the prebuilt VMIS-kNN session-similarity index (M, t).
	Index = core.Index
	// Params are the VMIS-kNN hyperparameters (sample size M, neighbours
	// K, decay and match-weight functions).
	Params = core.Params
	// ScoredItem is one recommendation with its score.
	ScoredItem = core.ScoredItem
	// Recommender executes VMIS-kNN queries. Not safe for concurrent use;
	// call Clone per goroutine.
	Recommender = core.Recommender
	// Neighbor is one of the k most similar historical sessions.
	Neighbor = core.Neighbor
	// Metrics holds ranking-quality metrics (MRR@k, Prec@k, …).
	Metrics = metrics.Report
)

// Serving types.
type (
	// Server is one stateful recommendation server.
	Server = serving.Server
	// ServerConfig parameterises a Server.
	ServerConfig = serving.Config
	// Request is one session update + recommendation request.
	Request = serving.Request
	// Response is the recommendation payload.
	Response = serving.Response
	// Catalog holds business-rule item flags (availability, adult).
	Catalog = serving.Catalog
	// Pool is a set of stateful replicas behind sticky-session routing.
	Pool = cluster.Pool
	// WALSyncPolicy selects when the durable session store fsyncs its
	// write-ahead log (ServerConfig.WALSync).
	WALSyncPolicy = kvstore.SyncPolicy
)

// Recommendation-quality telemetry types (ServerConfig.Quality): click
// attribution, per-variant windowed quality gauges and drift detection
// against an offline baseline. See DESIGN.md §13.
type (
	// QualityOptions enables the online quality loop on a Server: responses
	// carry recommendation ids, POST /track attributes feedback, and
	// GET /debug/quality exposes the windowed gauges.
	QualityOptions = quality.Options
	// QualityBaseline is the offline reference snapshot the drift detector
	// compares the online stream against (serenade-eval -quality-baseline).
	QualityBaseline = quality.Baseline
	// QualityDriftThresholds tune the drift detector.
	QualityDriftThresholds = quality.DriftThresholds
)

// LoadQualityBaseline reads a baseline written by serenade-eval
// -quality-baseline.
func LoadQualityBaseline(path string) (*QualityBaseline, error) {
	return quality.LoadBaseline(path)
}

// WAL sync policies, ordered from most to least durable.
const (
	// WALSyncAlways fsyncs every write before acknowledging it; no
	// acknowledged click can be lost to a crash.
	WALSyncAlways = kvstore.SyncAlways
	// WALSyncInterval group-commits on a short timer (the default): one
	// fsync covers every write in the window, bounding loss to that window.
	WALSyncInterval = kvstore.SyncInterval
	// WALSyncNever leaves flushing to the operating system.
	WALSyncNever = kvstore.SyncNever
)

// ParseWALSyncPolicy parses a -wal-sync flag value ("always", "interval" or
// "never"; empty means interval).
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return kvstore.ParseSyncPolicy(s) }

// DatasetConfig parameterises synthetic dataset generation.
type DatasetConfig = synth.Config

// Generate produces a synthetic e-commerce clickstream dataset.
func Generate(cfg DatasetConfig) (*Dataset, error) { return synth.Generate(cfg) }

// DatasetProfile returns a named dataset profile replicating the shape of
// one of the paper's datasets (see DatasetProfiles).
func DatasetProfile(name string) (DatasetConfig, error) { return synth.Profile(name) }

// DatasetProfiles lists the available profiles in Table 1 order.
func DatasetProfiles() []string { return synth.Profiles() }

// SmallDataset returns a small generation config for experimentation.
func SmallDataset(seed int64) DatasetConfig { return synth.Small(seed) }

// LoadCSV reads a click-log CSV (session_id,item_id,timestamp), gzip
// decompressed when path ends in ".gz".
func LoadCSV(path string) (*Dataset, error) { return sessions.LoadFile(path) }

// SaveCSV writes a dataset as a click-log CSV.
func SaveCSV(path string, ds *Dataset) error { return sessions.SaveFile(path, ds) }

// Stats computes Table 1 statistics for a dataset.
func Stats(ds *Dataset) DatasetStats { return sessions.ComputeStats(ds) }

// Split partitions the dataset temporally: sessions from the final testDays
// days form the held-out test set.
func Split(ds *Dataset, testDays int) (train, test *Dataset) {
	sp := sessions.TemporalSplit(ds, testDays)
	return sp.Train, sp.Test
}

// BuildIndex constructs the session-similarity index. Sessions are
// renumbered to dense, time-ascending identifiers first (session ids in the
// returned index therefore differ from the input's). capacity bounds the
// posting-list length per item and must be at least the largest query-time
// M; capacity <= 0 keeps complete lists.
func BuildIndex(ds *Dataset, capacity int) (*Index, error) {
	return core.BuildIndex(sessions.Renumber(ds), capacity)
}

// BuildIndexParallel builds the index with the data-parallel batch engine
// (the in-process equivalent of the paper's daily Spark job). workers <= 0
// selects GOMAXPROCS.
func BuildIndexParallel(ds *Dataset, capacity, workers int) (*Index, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return index.Build(dataflow.NewEngine(workers), sessions.Renumber(ds), capacity)
}

// SaveIndex writes the index to path in the mmap-able CSR section format
// LoadIndex reads.
func SaveIndex(path string, idx *Index) error { return index.SaveFile(path, idx) }

// LoadIndex reads an index written by SaveIndex, verifying its checksums.
// The file is mmap(2)ed and served zero-copy straight from the page cache
// where the platform supports it — check (*Index).Mapped — and such indexes
// must be released with (*Index).Close once no reader can touch them
// (ServerConfig.OwnIndex automates this for serving rollovers).
func LoadIndex(path string) (*Index, error) { return index.LoadFile(path) }

// New creates a VMIS-kNN recommender over a prebuilt index.
func New(idx *Index, p Params) (*Recommender, error) { return core.NewRecommender(idx, p) }

// NewServer creates a stateful recommendation server over a (shared,
// immutable) index. Expose it over HTTP via (*Server).Handler.
func NewServer(idx *Index, cfg ServerConfig) (*Server, error) {
	return serving.NewServer(idx, cfg)
}

// NewCatalog returns an empty business-rules catalog.
func NewCatalog() *Catalog { return serving.NewCatalog() }

// NewPool creates n stateful replicas behind consistent-hash sticky
// routing, the in-process equivalent of the paper's Kubernetes deployment.
func NewPool(idx *Index, cfg ServerConfig, n int) (*Pool, error) {
	return cluster.NewPool(idx, cfg, n)
}

// ItemItemCF is the classic item-to-item collaborative filtering
// recommender (the paper's legacy A/B control).
type ItemItemCF struct{ m *legacy.Model }

// NewItemItemCF trains an item-to-item CF model on historical sessions.
func NewItemItemCF(ds *Dataset) *ItemItemCF {
	return &ItemItemCF{m: legacy.Train(ds, legacy.Config{})}
}

// Recommend returns the top-n neighbours of the session's most recent item.
func (c *ItemItemCF) Recommend(evolving []ItemID, n int) []ScoredItem {
	return c.m.Recommend(evolving, n)
}

// Evaluate scores a recommender with the session-rec protocol: for every
// prefix of every test session it requests the top-k items and credits the
// true next item (MRR, hit rate) and all remaining session items
// (precision, recall, MAP).
func Evaluate(recommend func(evolving []ItemID, n int) []ScoredItem, test *Dataset, k int) (Metrics, error) {
	if k < 1 {
		return Metrics{}, fmt.Errorf("serenade: evaluation cutoff k must be positive, got %d", k)
	}
	acc := metrics.NewRankingAccumulator(k)
	for si := range test.Sessions {
		s := &test.Sessions[si]
		for t := 0; t < s.Len()-1; t++ {
			recs := recommend(s.Items[:t+1], k)
			items := make([]ItemID, len(recs))
			for i, r := range recs {
				items[i] = r.Item
			}
			acc.Add(items, s.Items[t+1], s.Items[t+1:])
		}
	}
	return acc.Report(), nil
}

// Extension types: compressed and incrementally maintained indexes (the
// paper's future-work directions, see DESIGN.md).
type (
	// CompressedIndex is a varint-compressed in-memory index queried in
	// place.
	CompressedIndex = compressed.Index
	// CompressedRecommender executes VMIS-kNN over a CompressedIndex.
	CompressedRecommender = compressed.Recommender
	// IncrementalIndex is a log-structured index supporting online session
	// appends, retention eviction and compaction.
	IncrementalIndex = incremental.Index
	// IncrementalRecommender executes VMIS-kNN over an IncrementalIndex.
	IncrementalRecommender = incremental.Recommender
)

// Compress converts an index into its compressed in-memory representation;
// queries over it return identical results at a smaller footprint.
func Compress(idx *Index) *CompressedIndex { return compressed.FromIndex(idx) }

// NewCompressed creates a recommender over a compressed index.
func NewCompressed(idx *CompressedIndex, p Params) (*CompressedRecommender, error) {
	return compressed.NewRecommender(idx, p)
}

// NewIncrementalIndex builds an incrementally maintainable index from
// historical sessions. Append finished sessions with
// (*IncrementalIndex).Append, expire old ones with EvictBefore, and fold
// the accumulated delta into a fresh base with Compact.
func NewIncrementalIndex(ds *Dataset, capacity int) (*IncrementalIndex, error) {
	return incremental.FromDataset(ds, capacity)
}

// NewIncremental creates a recommender over an incrementally maintained
// index; queries interleave safely with appends and compactions.
func NewIncremental(x *IncrementalIndex, p Params) (*IncrementalRecommender, error) {
	return incremental.NewRecommender(x, p)
}

// TrendingTracker tracks exponentially-decayed item popularity for the
// companion "new and trending" slot (§4.1); wire it into ServerConfig's
// Trending field to expose GET /v1/trending.
type TrendingTracker = trending.Tracker

// NewTrendingTracker creates a tracker whose scores halve every halfLife.
func NewTrendingTracker(halfLife time.Duration) *TrendingTracker {
	return trending.New(halfLife, nil)
}

// Event is one raw user interaction (user, item, timestamp) prior to
// sessionization.
type Event = sessions.Event

// Sessionize groups a raw event log into sessions by user and inactivity
// gap (gap <= 0 selects the production 30 minutes).
func Sessionize(events []Event, gap time.Duration) *Dataset {
	return sessions.Sessionize(events, gap)
}

// FilterConfig parameterises dataset preprocessing.
type FilterConfig = sessions.FilterConfig

// FilterDataset applies the session-rec preprocessing pipeline (minimum
// item support, minimum session length, iterated to a fixed point) and
// returns the filtered dataset with the number of iterations taken.
func FilterDataset(ds *Dataset, cfg FilterConfig) (*Dataset, int) {
	return sessions.Filter(ds, cfg)
}

// Default decay and match-weight functions, re-exported for Params.
var (
	// LinearDecay is the paper's default position decay π.
	LinearDecay = core.LinearDecay
	// QuadraticDecay emphasises recent items more strongly.
	QuadraticDecay = core.QuadraticDecay
	// LinearMatchWeight is the paper's default match weight λ.
	LinearMatchWeight = core.LinearMatchWeight
	// ConstantMatchWeight ignores the match position.
	ConstantMatchWeight = core.ConstantMatchWeight
)
