package experiments

import (
	"fmt"
	"io"
	"time"

	"serenade/internal/core"
	"serenade/internal/loadgen"
	"serenade/internal/rank"
	"serenade/internal/serving"
	"serenade/internal/sessions"
)

// QualityRunConfig drives the online quality loop: one serving replica per
// variant, fed the labelled test workload through a seeded position-biased
// click model, with the tallied clicks compared against the offline
// baseline the same evaluation protocol produces.
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
	// click ranks; with enough exposures it converges to
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
	Profile  string          `json:"profile"`
	Steps    int             `json:"steps"`
	Rounds   int             `json:"rounds"`
	Baseline *Baseline       `json:"baseline"`
	Rows     []QualityRunRow `json:"rows"`
}

// Baseline is the offline quality snapshot the online tallies are compared
// against. The quality experiment computes it by replaying the same
// labelled workload through the serving pipeline, so the reference
// distribution is the recommender as it actually evaluated — not a
// hand-maintained constant.
type Baseline struct {
	// Profile names the dataset profile the baseline was evaluated on.
	Profile string `json:"profile,omitempty"`
	// K is the cutoff the baseline was computed at.
	K int `json:"k"`
	// MRR and HitRate are the offline MRR@k / HitRate@k over all events.
	MRR     float64 `json:"mrr"`
	HitRate float64 `json:"hit_rate"`
	// CondMRR is the MRR conditioned on a hit (MRR / HitRate): the expected
	// reciprocal rank given the clicked item appeared in the list. The online
	// side can measure this without knowing the propensity of a click,
	// which makes it the primary drift statistic.
	CondMRR float64 `json:"cond_mrr"`
	// RankDist is P(rank | hit) for ranks 1..K — the shape statistic the
	// total-variation drift check compares against.
	RankDist []float64 `json:"rank_dist,omitempty"`
	// Coverage and MeanPopularity summarise the Ludewig & Jannach companion
	// metrics at evaluation time.
	Coverage       float64 `json:"coverage,omitempty"`
	MeanPopularity float64 `json:"mean_popularity,omitempty"`
	// TopScoreP50 is the median top-1 recommendation score.
	TopScoreP50 float64 `json:"top_score_p50,omitempty"`
	// Events is the number of prediction events behind the snapshot.
	Events int `json:"events"`
	// GeneratedAt is an informational timestamp string set by the emitter.
	GeneratedAt string `json:"generated_at,omitempty"`
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
func offlineBaseline(idx *core.Index, steps []loadgen.ClickStep, profile string, pop map[sessions.ItemID]float64, catalogSize int) (*Baseline, error) {
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
	base := &Baseline{
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
// simulated position-biased clicks, and report each variant's click
// tallies next to the offline reference.
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
		row, err := runVariant(idx, steps, variant, cfg, base)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// pipelines are the lines a served list is counted on, in the order every
// run sums them.
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

// Drift rules: a line needs minDriftClicks clicks before its click-rank
// distribution (total variation above maxRankTV) or its per-click MRR
// (below minMRRRatio of the baseline's) can flag drift.
const (
	maxRankTV      = 0.35
	minMRRRatio    = 0.5
	minDriftClicks = 30
)

// lineTally is one pipeline line's totals over a whole replay.
type lineTally struct {
	exposures uint64
	clicks    uint64
	// ranks counts clicks by rank 1..K.
	ranks *rank.Histogram
	// rrMicros sums 1e6/rank over clicks.
	rrMicros uint64
}

// condMRR is the line's mean reciprocal rank per click.
func (l *lineTally) condMRR() float64 {
	if l.clicks == 0 {
		return 0
	}
	return float64(l.rrMicros) / 1e6 / float64(l.clicks)
}

// lineDrift is one line's drift verdict and the statistics behind it.
type lineDrift struct {
	drifting bool
	// reason names the tripped rule, rank_tv or mrr_ratio.
	reason string
	// rankTV and mrrRatio stay 0 below minDriftClicks.
	rankTV   float64
	mrrRatio float64
}

// drift compares a line's tallies with the baseline.
func (l *lineTally) drift(base *Baseline) lineDrift {
	var d lineDrift
	if l.clicks < minDriftClicks {
		return d
	}
	if len(base.RankDist) > 0 {
		d.rankTV = rank.TotalVariation(l.ranks.Dist(), base.RankDist)
		if d.rankTV > maxRankTV {
			d.drifting, d.reason = true, "rank_tv"
		}
	}
	if base.CondMRR > 0 {
		d.mrrRatio = l.condMRR() / base.CondMRR
		if !d.drifting && d.mrrRatio < minMRRRatio {
			d.drifting, d.reason = true, "mrr_ratio"
		}
	}
	return d
}

// driftWorse orders line verdicts by severity: a drifting line beats a
// healthy one; among drifting lines the lower MRR ratio (or, at equal
// ratios, the higher TV) is worse; among healthy lines the higher TV is.
func driftWorse(a, b lineDrift) bool {
	if a.drifting != b.drifting {
		return a.drifting
	}
	if a.drifting && a.mrrRatio != b.mrrRatio {
		return a.mrrRatio < b.mrrRatio
	}
	return a.rankTV > b.rankTV
}

// worstDrift is the verdict of the worst line, taking the lines in
// pipelines order so that a tie goes to the earlier line.
func worstDrift(lines map[string]*lineTally, base *Baseline) lineDrift {
	var worst lineDrift
	for i, p := range pipelines {
		if d := lines[p].drift(base); i == 0 || driftWorse(d, worst) {
			worst = d
		}
	}
	return worst
}

// runVariant replays the workload against one serving replica, counts each
// response as an exposure on its pipeline's line, rolls the click model on
// the rank of the true next item and counts the click on the same line.
func runVariant(idx *core.Index, steps []loadgen.ClickStep, variant string, cfg QualityRunConfig, base *Baseline) (QualityRunRow, error) {
	srv, err := serving.NewServer(idx, qualityServingConfig())
	if err != nil {
		return QualityRunRow{}, err
	}
	defer srv.Close()
	lines := make(map[string]*lineTally, len(pipelines))
	for _, p := range pipelines {
		lines[p] = &lineTally{ranks: rank.NewHistogram(base.K)}
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
			ln := lines[exposurePipeline(req.Consent, resp.Items)]
			ln.exposures++
			r := st.RankOfNext(resp.Items)
			if r > 0 && cfg.Model.Clicks(req.SessionKey, st.Step, variant, r) {
				ln.clicks++
				ln.ranks.Add(r)
				ln.rrMicros += uint64(1e6 * rank.Reciprocal(r))
			}
		}
	}

	row := QualityRunRow{Variant: variant, OfflineMRR: base.MRR}
	all := lineTally{ranks: rank.NewHistogram(base.K)}
	for _, p := range pipelines {
		ln := lines[p]
		all.exposures += ln.exposures
		all.clicks += ln.clicks
		all.rrMicros += ln.rrMicros
		for r, c := range ln.ranks.Counts {
			all.ranks.Counts[r] += c
		}
	}
	row.Exposures, row.Clicks, row.CondMRR = all.exposures, all.clicks, all.condMRR()
	if row.Exposures > 0 {
		row.CTR = float64(row.Clicks) / float64(row.Exposures)
	}
	row.OnlineMRR = cfg.Model.UnbiasedMRR(all.ranks.Counts, row.Exposures, variant)
	if row.OfflineMRR > 0 {
		row.DeltaPct = (row.OnlineMRR - row.OfflineMRR) / row.OfflineMRR * 100
	}
	worst := worstDrift(lines, base)
	row.RankTV = worst.rankTV
	row.Drift = worst.drifting
	row.DriftReason = worst.reason
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
