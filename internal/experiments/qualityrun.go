package experiments

import (
	"fmt"
	"io"
	"time"

	"serenade/internal/core"
	"serenade/internal/loadgen"
	"serenade/internal/obs/quality"
	"serenade/internal/rank"
	"serenade/internal/serving"
	"serenade/internal/sessions"
)

// QualityRunConfig drives the online quality loop: one serving replica and
// one click-attribution tracker per variant, fed the labelled test workload
// through a seeded position-biased click model, with the attributed
// feedback compared against the offline baseline the same evaluation
// protocol produces.
type QualityRunConfig struct {
	// Variants are the A/B arms to simulate; empty means {"a", "b"}.
	Variants []string
	// Model is the click model; its VariantSkew simulates arms of
	// different engagement. A zero model uses the defaults.
	Model loadgen.ClickModel
	// Rounds replays the workload this many times under distinct session
	// keys; more rounds tighten the inverse-propensity MRR estimate.
	// 0 means 1.
	Rounds int
	// MaxSteps caps the labelled steps per round (0 = all).
	MaxSteps int
}

// QualityRunRow is one variant's online-vs-offline comparison, the unit of
// the BENCH_quality.json artifact.
type QualityRunRow struct {
	Variant   string  `json:"variant"`
	Exposures uint64  `json:"exposures"`
	Clicks    uint64  `json:"clicks"`
	CTR       float64 `json:"ctr"`
	// OnlineMRR is the inverse-propensity-weighted estimate recovered from
	// attributed click ranks; with enough exposures it converges to
	// OfflineMRR, which is the loop's tolerance check.
	OnlineMRR  float64 `json:"online_mrr"`
	OfflineMRR float64 `json:"offline_mrr"`
	DeltaPct   float64 `json:"delta_pct"`
	// CondMRR is the propensity-free per-click estimate the drift detector
	// compares against the baseline's CondMRR.
	CondMRR     float64 `json:"cond_mrr"`
	RankTV      float64 `json:"rank_tv"`
	Drift       bool    `json:"drift"`
	DriftReason string  `json:"drift_reason,omitempty"`
}

// QualityRunResult is the full harness output.
type QualityRunResult struct {
	Profile  string            `json:"profile"`
	Steps    int               `json:"steps"`
	Rounds   int               `json:"rounds"`
	Baseline *quality.Baseline `json:"baseline"`
	Rows     []QualityRunRow   `json:"rows"`
}

// qualityServingConfig is the serving configuration both the offline
// baseline replay and the online variants run, so the two sides of the
// comparison see the identical pipeline (kNN plus popularity padding).
func qualityServingConfig() serving.Config {
	return serving.Config{Params: core.Params{M: 500, K: 100}}
}

// trainPopularity counts training clicks per item, the popularity-bias
// reference both sides share.
func trainPopularity(train *sessions.Dataset) map[sessions.ItemID]float64 {
	pop := make(map[sessions.ItemID]float64, train.NumItems)
	for _, c := range train.Clicks {
		pop[c.Item]++
	}
	return pop
}

// offlineBaseline replays the labelled steps through a plain serving replica
// and summarises offline quality — MRR, hit rate, conditional MRR, hit-rank
// distribution, coverage, popularity bias, top-score median — as the drift
// reference. This is the exact protocol of evaluate() but routed through
// serving.Server, so the baseline reflects the production pipeline rather
// than the bare recommender.
func offlineBaseline(idx *core.Index, steps []loadgen.ClickStep, profile string, pop map[sessions.ItemID]float64, catalogSize int) (*quality.Baseline, error) {
	srv, err := serving.NewServer(idx, qualityServingConfig())
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	k := serving.DefaultRecommendations
	hist := rank.NewHistogram(k)
	seen := make(map[sessions.ItemID]struct{})
	var events, hits int
	var rrSum, popSum float64
	var popN int
	var topScores []float64
	for _, st := range steps {
		if !st.NextValid {
			continue
		}
		resp, err := srv.Recommend(st.Request)
		if err != nil {
			return nil, err
		}
		if len(resp.Items) > 0 {
			topScores = append(topScores, resp.Items[0].Score)
			for _, it := range resp.Items {
				seen[it.Item] = struct{}{}
				popSum += pop[it.Item]
				popN++
			}
		}
		events++
		if r := st.RankOfNext(resp.Items); r > 0 {
			hits++
			hist.Add(r)
			rrSum += rank.Reciprocal(r)
		}
	}
	if events == 0 {
		return nil, fmt.Errorf("experiments: no labelled steps in quality workload")
	}
	base := &quality.Baseline{
		Profile:     profile,
		K:           k,
		MRR:         rrSum / float64(events),
		HitRate:     float64(hits) / float64(events),
		RankDist:    hist.Dist(),
		Coverage:    rank.Coverage(len(seen), catalogSize),
		TopScoreP50: rank.Quantile(topScores, 0.50),
		Events:      events,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if hits > 0 {
		base.CondMRR = rrSum / float64(hits)
	}
	if popN > 0 {
		base.MeanPopularity = popSum / float64(popN)
	}
	return base, nil
}

// QualityRun closes the loop end to end: compute the offline baseline, then
// replay the same labelled workload against one replica per variant with
// simulated position-biased clicks attributed by a tracker, and report
// per-variant online gauges next to the offline reference.
func QualityRun(cfg QualityRunConfig, opts Options) (*QualityRunResult, error) {
	profile := "ecom-60m-sim"
	if opts.Quick {
		profile = "retailrocket-sim"
	}
	if len(cfg.Variants) == 0 {
		cfg.Variants = []string{"a", "b"}
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.Model.Seed == 0 {
		cfg.Model.Seed = opts.Seed
	}

	train, test, err := prepProfile(profile, opts)
	if err != nil {
		return nil, err
	}
	idx, err := core.BuildIndex(train, 500)
	if err != nil {
		return nil, err
	}
	pop := trainPopularity(train)
	steps := loadgen.ClickWorkload(test, cfg.MaxSteps)

	base, err := offlineBaseline(idx, steps, profile, pop, train.NumItems)
	if err != nil {
		return nil, err
	}

	res := &QualityRunResult{Profile: profile, Rounds: cfg.Rounds, Baseline: base}
	for _, st := range steps {
		if st.NextValid {
			res.Steps++
		}
	}

	for _, variant := range cfg.Variants {
		row, err := runVariant(idx, steps, variant, cfg, base, pop, train.NumItems)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// pipelines are the tracker lines a served list is attributed to, created
// in this order so every run sums the lines in the same order.
var pipelines = [...]string{"knn", "knn+popular", "depersonalised"}

// exposurePipeline names the path that shaped a served list. Consent denial
// dominates (the whole prediction was depersonalised); then popularity
// padding, which appends zero-score items after the kernel's strictly
// positive ones; anything else is the plain kNN list.
func exposurePipeline(consent bool, items []core.ScoredItem) string {
	switch {
	case !consent:
		return "depersonalised"
	case len(items) > 0 && items[len(items)-1].Score == 0:
		return "knn+popular"
	}
	return "knn"
}

// runVariant replays the workload against one serving replica, records each
// response as an exposure on the variant's tracker, rolls the click model
// on the rank of the true next item and attributes the resulting click
// back to its exposure.
func runVariant(idx *core.Index, steps []loadgen.ClickStep, variant string, cfg QualityRunConfig, base *quality.Baseline, pop map[sessions.ItemID]float64, catalogSize int) (QualityRunRow, error) {
	srv, err := serving.NewServer(idx, qualityServingConfig())
	if err != nil {
		return QualityRunRow{}, err
	}
	defer srv.Close()
	tr := quality.New(quality.Options{
		Variant:     variant,
		Baseline:    base,
		K:           base.K,
		CatalogSize: catalogSize,
		Popularity:  func(it sessions.ItemID) float64 { return pop[it] },
	})
	for _, p := range pipelines {
		tr.Line(p)
	}

	for round := 0; round < cfg.Rounds; round++ {
		suffix := "/r" + itoaU(uint64(round))
		for _, st := range steps {
			// Unlabelled final clicks can never be evaluated (offline skips
			// them too), so they produce no exposure: the online and offline
			// denominators stay identical.
			if !st.NextValid {
				continue
			}
			req := st.Request
			req.SessionKey += suffix
			resp, err := srv.Recommend(req)
			if err != nil {
				return QualityRunRow{}, err
			}
			id := tr.RecordExposure(tr.Line(exposurePipeline(req.Consent, resp.Items)), resp.Items)
			r := st.RankOfNext(resp.Items)
			if r > 0 && cfg.Model.Clicks(req.SessionKey, st.Step, variant, r) {
				tr.Attribute(id, st.Next, false)
			}
		}
	}

	snap := tr.Snapshot()
	row := QualityRunRow{Variant: variant, OfflineMRR: base.MRR}
	rankClicks := make([]uint64, base.K)
	var rrSum float64
	for _, ln := range snap.Lines {
		row.Exposures += ln.Cumulative.Exposures
		row.Clicks += ln.Cumulative.Clicks
		for i, c := range ln.RankClicks {
			if i < len(rankClicks) {
				rankClicks[i] += c
			}
		}
		// The horizon window still holds the whole replay, so its per-click
		// reciprocal-rank mass aggregates across lines.
		hw := ln.Windows[len(ln.Windows)-1]
		rrSum += hw.CondMRR * float64(hw.Clicks)
	}
	if row.Exposures > 0 {
		row.CTR = float64(row.Clicks) / float64(row.Exposures)
	}
	if row.Clicks > 0 {
		row.CondMRR = rrSum / float64(row.Clicks)
	}
	row.OnlineMRR = cfg.Model.UnbiasedMRR(rankClicks, row.Exposures, variant)
	if row.OfflineMRR > 0 {
		row.DeltaPct = (row.OnlineMRR - row.OfflineMRR) / row.OfflineMRR * 100
	}
	drift := tr.Drift()
	row.RankTV = drift.RankTV
	row.Drift = drift.Drifting
	row.DriftReason = drift.Reason
	return row, nil
}

// PrintQualityRun renders the online-vs-offline MRR table.
func PrintQualityRun(w io.Writer, res *QualityRunResult) {
	fmt.Fprintf(w, "online quality loop: %s, %d labelled steps x %d rounds (offline MRR@%d %.4f, hit %.4f, cond %.4f)\n",
		res.Profile, res.Steps, res.Rounds, res.Baseline.K, res.Baseline.MRR, res.Baseline.HitRate, res.Baseline.CondMRR)
	header := []string{"variant", "exposures", "clicks", "CTR", "online MRR (IPW)", "offline MRR", "delta", "cond MRR", "rank TV", "drift"}
	var cells [][]string
	for _, r := range res.Rows {
		driftCol := "-"
		if r.Drift {
			driftCol = r.DriftReason
		}
		cells = append(cells, []string{
			r.Variant,
			fmt.Sprintf("%d", r.Exposures),
			fmt.Sprintf("%d", r.Clicks),
			fmt.Sprintf("%.4f", r.CTR),
			fmt.Sprintf("%.4f", r.OnlineMRR),
			fmt.Sprintf("%.4f", r.OfflineMRR),
			fmt.Sprintf("%+.1f%%", r.DeltaPct),
			fmt.Sprintf("%.4f", r.CondMRR),
			fmt.Sprintf("%.3f", r.RankTV),
			driftCol,
		})
	}
	printTable(w, header, cells)
}

// itoaU is a dependency-free uint formatter for session-key suffixes.
func itoaU(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
