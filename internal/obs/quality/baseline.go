package quality

// Baseline is an offline quality snapshot the drift detector compares the
// online stream against. The quality experiment computes it by replaying the
// same labelled workload through the serving pipeline, so the reference
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
	// estimator can measure this without knowing the propensity of a click,
	// which makes it the primary drift statistic.
	CondMRR float64 `json:"cond_mrr"`
	// RankDist is P(rank | hit) for ranks 1..K — the shape statistic the
	// total-variation drift check compares against.
	RankDist []float64 `json:"rank_dist,omitempty"`
	// Coverage and MeanPopularity summarise the Ludewig & Jannach companion
	// metrics at evaluation time.
	Coverage       float64 `json:"coverage,omitempty"`
	MeanPopularity float64 `json:"mean_popularity,omitempty"`
	// TopScoreP50 is the median top-1 recommendation score, a cheap proxy for
	// the score distribution (an index serving stale generations shifts it).
	TopScoreP50 float64 `json:"top_score_p50,omitempty"`
	// Events is the number of prediction events behind the snapshot.
	Events int `json:"events"`
	// GeneratedAt is an informational timestamp string set by the emitter.
	GeneratedAt string `json:"generated_at,omitempty"`
}
