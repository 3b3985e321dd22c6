package experiments

import (
	"fmt"
	"io"
	"time"

	"serenade/internal/compressed"
	"serenade/internal/core"
	"serenade/internal/incremental"
	"serenade/internal/sessions"
)

// ExtensionsResult quantifies the two future-work extensions (§7 of the
// paper): querying a compressed index in place, and maintaining the index
// incrementally instead of rebuilding daily. The query rows time one
// algorithm, Algorithm 2's walk (core.ReferenceRecommender), over each
// storage, so they differ only in storage; the production kernel over the
// raw index is a separate row for scale.
type ExtensionsResult struct {
	RawBytes        int64
	CompressedBytes int64

	// The walk over each storage.
	RawMedian     time.Duration
	RawP90        time.Duration
	CompMedian    time.Duration
	CompP90       time.Duration
	IncBaseMedian time.Duration // incremental, empty delta: the raw sessions
	IncBaseP90    time.Duration
	IncMedian     time.Duration // incremental, base + DeltaAtBenchmark sessions
	IncP90        time.Duration

	// The kernel (core.Recommender) over the raw index.
	KernelMedian time.Duration
	KernelP90    time.Duration

	// Incremental maintenance.
	AppendsPerSec    float64
	CompactTime      time.Duration
	FullRebuildTime  time.Duration
	DeltaAtBenchmark int
}

// timeRecommend times recommend(q, 21) over the queries, returning the
// median and p90.
func timeRecommend(recommend func([]sessions.ItemID, int) []core.ScoredItem, queries [][]sessions.ItemID) (median, p90 time.Duration) {
	ts := timeQueries(func(q []sessions.ItemID) { recommend(q, 21) }, queries)
	return durationPercentile(ts, 0.5), durationPercentile(ts, 0.9)
}

// Extensions measures both extensions on the ecom-1m stand-in.
func Extensions(opts Options) (*ExtensionsResult, error) {
	train, test, err := prepProfile("ecom-1m-sim", opts)
	if err != nil {
		return nil, err
	}
	p := core.Params{M: 500, K: 100}
	maxSessions := 150
	if opts.Quick {
		maxSessions = 30
	}
	queries := queryPrefixes(test, maxSessions)
	res := &ExtensionsResult{}

	// --- Compressed index ---
	idx, err := core.BuildIndex(train, 0)
	if err != nil {
		return nil, err
	}
	comp := compressed.FromIndex(idx)
	res.RawBytes = idx.MemoryFootprint()
	res.CompressedBytes = comp.MemoryFootprint()

	kernel, err := core.NewRecommender(idx, p)
	if err != nil {
		return nil, err
	}
	res.KernelMedian, res.KernelP90 = timeRecommend(kernel.Recommend, queries)

	rawRec, err := core.NewReferenceRecommender(idx, p)
	if err != nil {
		return nil, err
	}
	res.RawMedian, res.RawP90 = timeRecommend(rawRec.Recommend, queries)

	compRec, err := core.NewReferenceRecommender(comp, p)
	if err != nil {
		return nil, err
	}
	res.CompMedian, res.CompP90 = timeRecommend(compRec.Recommend, queries)

	// --- Incremental maintenance ---
	inc, err := incremental.FromDataset(train, 0)
	if err != nil {
		return nil, err
	}
	incRec, err := incremental.NewRecommender(inc, p)
	if err != nil {
		return nil, err
	}
	res.IncBaseMedian, res.IncBaseP90 = timeRecommend(incRec.Recommend, queries)

	appendCount := len(test.Sessions)
	last := train.Sessions[len(train.Sessions)-1].Time()
	start := time.Now()
	for i := range test.Sessions {
		s := &test.Sessions[i]
		if t := s.Time(); t > last {
			last = t
		}
		if _, err := inc.Append(s.Items, last); err != nil {
			return nil, err
		}
	}
	appendElapsed := time.Since(start)
	if appendElapsed > 0 {
		res.AppendsPerSec = float64(appendCount) / appendElapsed.Seconds()
	}
	res.DeltaAtBenchmark = inc.DeltaSessions()
	res.IncMedian, res.IncP90 = timeRecommend(incRec.Recommend, queries)

	start = time.Now()
	if err := inc.Compact(); err != nil {
		return nil, err
	}
	res.CompactTime = time.Since(start)

	// Reference cost: a full daily rebuild over the same data. Like Compact,
	// the timed span starts from sessions in memory, so it includes
	// materialising the dataset as well as building the index.
	start = time.Now()
	all := append(append([]sessions.Session{}, train.Sessions...), test.Sessions...)
	full := sessions.Renumber(sessions.FromSessions("full", all))
	if _, err := core.BuildIndex(full, 0); err != nil {
		return nil, err
	}
	res.FullRebuildTime = time.Since(start)
	return res, nil
}

// PrintExtensions renders both ablations.
func PrintExtensions(w io.Writer, r *ExtensionsResult) {
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	fmt.Fprintln(w, "§7 future work: one query walk (Algorithm 2) over each index storage")
	printTable(w, []string{"query", "index bytes", "median", "p90"}, [][]string{
		{"walk, raw", fmt.Sprintf("%d", r.RawBytes), us(r.RawMedian), us(r.RawP90)},
		{"walk, compressed", fmt.Sprintf("%d", r.CompressedBytes), us(r.CompMedian), us(r.CompP90)},
		{"walk, incremental (empty delta)", "", us(r.IncBaseMedian), us(r.IncBaseP90)},
		{fmt.Sprintf("walk, incremental (+%d delta)", r.DeltaAtBenchmark), "", us(r.IncMedian), us(r.IncP90)},
		{"kernel, raw (production)", fmt.Sprintf("%d", r.RawBytes), us(r.KernelMedian), us(r.KernelP90)},
	})
	fmt.Fprintf(w, "footprint ratio: %.2fx smaller\n\n", float64(r.RawBytes)/float64(r.CompressedBytes))

	fmt.Fprintln(w, "Incremental index maintenance")
	printTable(w, []string{"metric", "value"}, [][]string{
		{"appends/s", fmt.Sprintf("%.0f", r.AppendsPerSec)},
		{"delta sessions at query time", fmt.Sprintf("%d", r.DeltaAtBenchmark)},
		{"compaction time", r.CompactTime.Round(100 * time.Microsecond).String()},
		{"full rebuild time (reference)", r.FullRebuildTime.Round(100 * time.Microsecond).String()},
	})
}
