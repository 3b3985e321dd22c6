package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"serenade/internal/loadgen"
	"serenade/internal/rank"
	"serenade/internal/serving"
)

// benchQualityConfig is `make quality-bench`'s loop: quick profile, seed 99,
// click seed 17, 12 rounds, arm b skewed to 0.7, default base and decay.
func benchQualityConfig(rounds int) QualityRunConfig {
	return QualityRunConfig{
		Variants: []string{"a", "b"},
		Model:    loadgen.ClickModel{Seed: 17, VariantSkew: map[string]float64{"b": 0.7}},
		Rounds:   rounds,
	}
}

// TestQualityRunMatchesCommitted turns the committed BENCH_quality.json into
// a check: the loop `make quality-bench` runs must print the committed
// extra.quality byte for byte, the baseline's timestamp aside.
func TestQualityRunMatchesCommitted(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_quality.json")
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Extra struct {
			Quality json.RawMessage `json:"quality"`
		} `json:"extra"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Baseline struct {
			GeneratedAt string `json:"generated_at"`
		} `json:"baseline"`
	}
	if err := json.Unmarshal(artifact.Extra.Quality, &committed); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, artifact.Extra.Quality); err != nil {
		t.Fatal(err)
	}

	res, err := QualityRun(benchQualityConfig(12), quick)
	if err != nil {
		t.Fatal(err)
	}
	res.Baseline.GeneratedAt = committed.Baseline.GeneratedAt
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("quality run differs from BENCH_quality.json extra.quality\n got %s\nwant %s", got, want.Bytes())
	}
}

// TestQualityRankTVCoversEveryClick: a long run's rank_tv is the total
// variation between the rank distribution of every attributed click and the
// baseline's, not of some recent subset. The clicks are recounted here by an
// independent replay of the same seeded loop; the loop's serving config
// never pads and every request has consent, so all clicks are on one line.
func TestQualityRankTVCoversEveryClick(t *testing.T) {
	const rounds = 200
	cfg := benchQualityConfig(rounds)
	res, err := QualityRun(cfg, quick)
	if err != nil {
		t.Fatal(err)
	}

	_, idx, steps := quickQualityWorkload(t)
	for _, row := range res.Rows {
		srv, err := serving.NewServer(idx, qualityServingConfig())
		if err != nil {
			t.Fatal(err)
		}
		hist := rank.NewHistogram(res.Baseline.K)
		for round := 0; round < rounds; round++ {
			for _, st := range steps {
				if !st.NextValid {
					continue
				}
				req := st.Request
				req.SessionKey += "/r" + itoaU(uint64(round))
				resp, err := srv.Recommend(req)
				if err != nil {
					t.Fatal(err)
				}
				if r := st.RankOfNext(resp.Items); r > 0 && cfg.Model.Clicks(req.SessionKey, st.Step, row.Variant, r) {
					hist.Add(r)
				}
			}
		}
		srv.Close()
		if hist.Total() != row.Clicks {
			t.Fatalf("%s: recount found %d clicks, row reports %d", row.Variant, hist.Total(), row.Clicks)
		}
		want := rank.TotalVariation(hist.Dist(), res.Baseline.RankDist)
		if row.RankTV != want {
			t.Errorf("%s: rank_tv = %v over %d clicks, want %v (every click)", row.Variant, row.RankTV, row.Clicks, want)
		}
	}
}

// tally is a line whose every exposure was clicked, counts[i] of them at
// rank i+1.
func tally(counts ...int) *lineTally {
	ln := &lineTally{ranks: rank.NewHistogram(5)}
	for i, n := range counts {
		for ; n > 0; n-- {
			ln.exposures++
			ln.clicks++
			ln.ranks.Add(i + 1)
			ln.rrMicros += uint64(1e6 * rank.Reciprocal(i+1))
		}
	}
	return ln
}

// TestLineDrift covers the drift rules and the worst-line order: a line
// needs 30 clicks before its rank distribution (TV above 0.35) or its
// per-click MRR (below half the baseline's) can flag drift; a drifting line
// beats a healthy one, the lower MRR ratio beats a higher one, and among
// healthy lines the higher TV is reported.
func TestLineDrift(t *testing.T) {
	shape := &Baseline{K: 5, CondMRR: 1, RankDist: []float64{1, 0, 0, 0, 0}}
	noShape := &Baseline{K: 5, CondMRR: 1}
	for _, tc := range []struct {
		name  string
		base  *Baseline
		lines map[string]*lineTally
		want  lineDrift
	}{
		{"rank_tv", shape, map[string]*lineTally{"knn": tally(0, 40)},
			lineDrift{drifting: true, reason: "rank_tv", rankTV: 1, mrrRatio: 0.5}},
		{"mrr_ratio", noShape, map[string]*lineTally{"knn": tally(0, 0, 0, 40)},
			lineDrift{drifting: true, reason: "mrr_ratio", mrrRatio: 0.25}},
		{"below_click_gate", shape, map[string]*lineTally{"knn": tally(0, 0, 0, 29)},
			lineDrift{}},
		{"healthy", shape, map[string]*lineTally{"knn": tally(40)},
			lineDrift{mrrRatio: 1}},
		{"worst_line", shape, map[string]*lineTally{"knn": tally(40), "depersonalised": tally(0, 0, 0, 40)},
			lineDrift{drifting: true, reason: "rank_tv", rankTV: 1, mrrRatio: 0.25}},
		{"lowest_mrr_ratio", shape, map[string]*lineTally{"knn": tally(0, 0, 0, 40), "knn+popular": tally(0, 40)},
			lineDrift{drifting: true, reason: "rank_tv", rankTV: 1, mrrRatio: 0.25}},
		{"highest_tv_when_healthy", shape, map[string]*lineTally{"knn": tally(40), "knn+popular": tally(35, 5)},
			lineDrift{rankTV: 0.125, mrrRatio: 0.9375}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range pipelines {
				if tc.lines[p] == nil {
					tc.lines[p] = tally()
				}
			}
			if got := worstDrift(tc.lines, tc.base); got != tc.want {
				t.Errorf("worstDrift = %+v, want %+v", got, tc.want)
			}
		})
	}
}
