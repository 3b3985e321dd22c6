package experiments

import (
	"bytes"
	"math"
	"math/rand"

	"strings"
	"testing"
	"time"

	"serenade/internal/core"
	"serenade/internal/loadgen"
	"serenade/internal/serving"
	"serenade/internal/sessions"
)

var quick = Options{Quick: true, Seed: 99}

// uniqueTimeDataset builds sessions with strictly increasing timestamps so
// that all implementation design points have identical tie-breaking.
func uniqueTimeDataset(rng *rand.Rand, n, vocab int) *sessions.Dataset {
	var ss []sessions.Session
	tick := int64(1000)
	for i := 0; i < n; i++ {
		length := 2 + rng.Intn(6)
		items := make([]sessions.ItemID, length)
		times := make([]int64, length)
		for j := range items {
			items[j] = sessions.ItemID(rng.Intn(vocab))
			tick++
			times[j] = tick
		}
		ss = append(ss, sessions.Session{ID: sessions.SessionID(i), Items: items, Times: times})
	}
	return sessions.FromSessions("uniq", ss)
}

// TestImplementationsAgree is the correctness gate for the Figure 3(a)
// comparison: all five design points must return identical recommendations;
// they differ only in execution strategy.
func TestImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := uniqueTimeDataset(rng, 400, 60)
	p := core.Params{M: 30, K: 10}
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	vmis, err := NewVMISCore(idx, p)
	if err != nil {
		t.Fatal(err)
	}
	impls := []Implementation{
		NewVSScan(ds, p),
		NewVMISBoxed(idx, p),
		NewVMISMaterialised(idx, p),
		NewVMISIndexed(idx, p),
		vmis,
	}
	for trial := 0; trial < 100; trial++ {
		length := 1 + rng.Intn(5)
		q := make([]sessions.ItemID, length)
		for i := range q {
			q[i] = sessions.ItemID(rng.Intn(60))
		}
		want := impls[0].Recommend(q, 21)
		for _, impl := range impls[1:] {
			got := impl.Recommend(q, 21)
			if !approxSameRecs(got, want, 1e-9) {
				t.Fatalf("%s disagrees with %s on %v:\n%v\nvs\n%v",
					impl.Name(), impls[0].Name(), q, got, want)
			}
		}
	}
}

// approxSameRecs compares two ranked lists allowing last-ULP differences
// from floating-point summation order: the lists must have the same length,
// and items in the same position must either match or carry scores within
// rel tolerance (adjacent near-ties may swap order across implementations).
func approxSameRecs(a, b []core.ScoredItem, rel float64) bool {
	if len(a) != len(b) {
		return false
	}
	scoreOf := func(list []core.ScoredItem) map[sessions.ItemID]float64 {
		m := make(map[sessions.ItemID]float64, len(list))
		for _, r := range list {
			m[r.Item] = r.Score
		}
		return m
	}
	sa, sb := scoreOf(a), scoreOf(b)
	for i := range a {
		if a[i].Item == b[i].Item {
			if !within(a[i].Score, b[i].Score, rel) {
				return false
			}
			continue
		}
		// A positional swap is acceptable only between near-tied scores,
		// and both items must appear in both lists with matching scores.
		if !within(a[i].Score, b[i].Score, rel) {
			return false
		}
		other, ok := sb[a[i].Item]
		if !ok || !within(a[i].Score, other, rel) {
			return false
		}
		if mine, ok := sa[b[i].Item]; !ok || !within(b[i].Score, mine, rel) {
			return false
		}
	}
	return true
}

func within(x, y, rel float64) bool {
	d := x - y
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if ax := mathAbs(x); ax > scale {
		scale = ax
	}
	return d <= rel*scale
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestImplementationNames(t *testing.T) {
	ds := uniqueTimeDataset(rand.New(rand.NewSource(1)), 50, 20)
	idx, _ := core.BuildIndex(ds, 0)
	p := core.Params{M: 10, K: 5}
	vmis, _ := NewVMISCore(idx, p)
	names := map[string]bool{}
	for _, impl := range []Implementation{
		NewVSScan(ds, p), NewVMISBoxed(idx, p), NewVMISMaterialised(idx, p), NewVMISIndexed(idx, p), vmis,
	} {
		names[impl.Name()] = true
	}
	if len(names) != 5 {
		t.Errorf("implementation names not distinct: %v", names)
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Clicks == 0 || r.Sessions == 0 || r.Items == 0 {
			t.Errorf("empty stats for %s", r.Name)
		}
		if r.P25 < 2 || r.P99 < r.P50 {
			t.Errorf("%s: implausible percentiles %d/%d/%d/%d", r.Name, r.P25, r.P50, r.P75, r.P99)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "retailrocket-sim") {
		t.Error("printed table missing dataset name")
	}
}

func TestQuality(t *testing.T) {
	rows, err := Quality(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (VMIS + 3 neural + legacy)", len(rows))
	}
	byName := map[string]QualityRow{}
	for _, r := range rows {
		byName[r.Model] = r
		if r.Report.N == 0 {
			t.Errorf("%s evaluated on zero events", r.Model)
		}
		if r.Report.MRR < 0 || r.Report.MRR > 1 {
			t.Errorf("%s MRR out of range: %v", r.Model, r.Report.MRR)
		}
	}
	if byName["VMIS-kNN"].Report.MRR == 0 {
		t.Error("VMIS-kNN scored zero MRR — no signal in the evaluation")
	}
	var buf bytes.Buffer
	PrintQuality(&buf, rows)
	if !strings.Contains(buf.String(), "VMIS-kNN") {
		t.Error("printed quality table incomplete")
	}
}

func TestGrid(t *testing.T) {
	cells, err := Grid("retailrocket-sim", quick)
	if err != nil {
		t.Fatal(err)
	}
	// quick: ks={50,100}, ms={50,500}; k<=m leaves (50,50),(50,500),(100,500).
	if len(cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(cells))
	}
	for _, c := range cells {
		if c.K > c.M {
			t.Errorf("cell with k=%d > m=%d", c.K, c.M)
		}
		if c.MRR < 0 || c.MRR > 1 || c.Prec < 0 || c.Prec > 1 {
			t.Errorf("cell (%d,%d) metrics out of range: %+v", c.M, c.K, c)
		}
	}
	var buf bytes.Buffer
	PrintGrid(&buf, "retailrocket-sim", cells)
	if !strings.Contains(buf.String(), "MRR@20") || !strings.Contains(buf.String(), "Prec@20") {
		t.Error("printed grid missing metric sections")
	}
}

func TestImplComparison(t *testing.T) {
	rows, err := ImplComparison(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 impls on 1 quick dataset", len(rows))
	}
	for _, r := range rows {
		if r.Median <= 0 || r.P90 < r.Median {
			t.Errorf("%s/%s: implausible timings median=%v p90=%v", r.Dataset, r.Impl, r.Median, r.P90)
		}
	}
	var buf bytes.Buffer
	PrintImplComparison(&buf, rows)
	if !strings.Contains(buf.String(), "VMIS-kNN") {
		t.Error("printed comparison incomplete")
	}
}

func TestMicro(t *testing.T) {
	rows, err := Micro(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 2 m-values x 3 variants", len(rows))
	}
	var buf bytes.Buffer
	PrintMicro(&buf, rows)
	if !strings.Contains(buf.String(), "VMIS-kNN-no-opt") {
		t.Error("printed microbenchmark incomplete")
	}
}

func TestLoadTestQuick(t *testing.T) {
	res, err := LoadTest(LoadTestConfig{RPS: 300, Duration: 1200 * time.Millisecond, Replicas: 2}, quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if res.Errors > res.Sent/10 {
		t.Errorf("errors = %d of %d, want <10%%", res.Errors, res.Sent)
	}
	var buf bytes.Buffer
	PrintLoadTest(&buf, res)
	if !strings.Contains(buf.String(), "req/s") {
		t.Error("printed load test incomplete")
	}
}

func TestABTestQuick(t *testing.T) {
	res, err := ABTest(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 3 {
		t.Fatalf("arms = %d, want 3", len(res.Arms))
	}
	for _, c := range res.Comparisons {
		if c.Slot1LiftPct <= 0 {
			t.Errorf("%s slot1 lift = %.2f%%, want positive (VMIS-kNN must beat item-item CF)", c.Arm, c.Slot1LiftPct)
		}
	}
	var buf bytes.Buffer
	PrintABTest(&buf, res)
	if !strings.Contains(buf.String(), "serenade-hist") {
		t.Error("printed A/B table incomplete")
	}
}

func TestKVBenchQuick(t *testing.T) {
	res, err := KVBench(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadP99 <= 0 || res.WriteP99 <= 0 {
		t.Error("zero percentiles")
	}
	// The paper's contract: microsecond-scale local reads/writes.
	if res.ReadP99 > 2*time.Millisecond || res.WriteP99 > 2*time.Millisecond {
		t.Errorf("p99 latencies not microsecond-scale: read %v write %v", res.ReadP99, res.WriteP99)
	}
	var buf bytes.Buffer
	PrintKVBench(&buf, res)
	if !strings.Contains(buf.String(), "read p99") {
		t.Error("printed kv bench incomplete")
	}
}

func TestCoreScalingQuick(t *testing.T) {
	rows, err := CoreScaling([]int{100, 200}, 1200*time.Millisecond, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	var buf bytes.Buffer
	PrintCoreScaling(&buf, rows)
	if !strings.Contains(buf.String(), "avg cores") {
		t.Error("printed scaling table incomplete")
	}
}

func TestExtensionsQuick(t *testing.T) {
	res, err := Extensions(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressedBytes >= res.RawBytes {
		t.Errorf("compressed %d >= raw %d bytes", res.CompressedBytes, res.RawBytes)
	}
	if res.RawMedian <= 0 || res.CompMedian <= 0 || res.IncBaseMedian <= 0 || res.IncMedian <= 0 || res.KernelMedian <= 0 {
		t.Error("zero query timings")
	}
	if res.AppendsPerSec <= 0 || res.DeltaAtBenchmark == 0 {
		t.Error("incremental appends not measured")
	}
	var buf bytes.Buffer
	PrintExtensions(&buf, res)
	if !strings.Contains(buf.String(), "compressed") || !strings.Contains(buf.String(), "appends/s") {
		t.Error("printed extensions report incomplete")
	}
}

func TestComplexityQuick(t *testing.T) {
	rows, err := Complexity(quick)
	if err != nil {
		t.Fatal(err)
	}
	dims := map[string]int{}
	for _, r := range rows {
		dims[r.Dimension]++
		if r.Median <= 0 {
			t.Errorf("%s=%d: zero median", r.Dimension, r.Value)
		}
	}
	if dims["history"] != 2 || dims["session-length"] != 2 || dims["sample"] != 2 {
		t.Errorf("sweep shape wrong: %v", dims)
	}
	var buf bytes.Buffer
	PrintComplexity(&buf, rows)
	if !strings.Contains(buf.String(), "session-length") {
		t.Error("printed complexity table incomplete")
	}
}

func TestDurationPercentile(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2}
	if got := durationPercentile(ds, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := durationPercentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of empty = %v, want 0", got)
	}
}

// TestQualityRunQuick is the end-to-end acceptance check for the online
// quality loop: replaying the labelled workload through one replica per arm
// with simulated position-biased clicks must recover, via inverse
// propensity weighting, an online MRR estimate within tolerance of the
// offline MRR the baseline replay measured on the very same traffic — and
// the whole run must be deterministic under a fixed seed.
func TestQualityRunQuick(t *testing.T) {
	cfg := QualityRunConfig{
		Variants: []string{"a", "b"},
		Model:    loadgen.ClickModel{Seed: 17, VariantSkew: map[string]float64{"b": 0.7}},
		Rounds:   12,
	}
	res, err := QualityRun(cfg, quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline == nil || res.Baseline.MRR <= 0 || res.Baseline.CondMRR <= 0 {
		t.Fatalf("degenerate baseline: %+v", res.Baseline)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Exposures != uint64(res.Steps*res.Rounds) {
			t.Errorf("%s: exposures = %d, want %d (labelled steps x rounds)", r.Variant, r.Exposures, res.Steps*res.Rounds)
		}
		if r.Clicks == 0 {
			t.Errorf("%s: no clicks attributed", r.Variant)
		}
		// The IPW estimator inverts the click model's own propensities, so
		// the skewed arm must land on the same offline MRR as the neutral
		// one — that invariance is the estimator's correctness check.
		if diff := math.Abs(r.OnlineMRR-r.OfflineMRR) / r.OfflineMRR; diff > 0.25 {
			t.Errorf("%s: online MRR %.4f vs offline %.4f (%.0f%% off, want ≤25%%)", r.Variant, r.OnlineMRR, r.OfflineMRR, diff*100)
		}
		// Healthy traffic against its own baseline must not read as drift.
		if r.Drift {
			t.Errorf("%s: healthy loop flagged drift (%s)", r.Variant, r.DriftReason)
		}
	}
	// The skew suppresses arm b's raw CTR even though its IPW MRR matches.
	if res.Rows[1].CTR >= res.Rows[0].CTR {
		t.Errorf("skewed arm CTR %.4f not below neutral %.4f", res.Rows[1].CTR, res.Rows[0].CTR)
	}

	// Determinism: an identical run reproduces the quality numbers exactly.
	res2, err := QualityRun(cfg, quick)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		a, b := res.Rows[i], res2.Rows[i]
		if a.Exposures != b.Exposures || a.Clicks != b.Clicks || a.OnlineMRR != b.OnlineMRR {
			t.Errorf("run not deterministic: %+v vs %+v", a, b)
		}
	}

	var buf bytes.Buffer
	PrintQualityRun(&buf, res)
	if !strings.Contains(buf.String(), "online MRR (IPW)") {
		t.Error("printed quality table incomplete")
	}
}

// quickQualityWorkload indexes the quick quality profile and builds its
// labelled click workload.
func quickQualityWorkload(t *testing.T) (*sessions.Dataset, *core.Index, []loadgen.ClickStep) {
	t.Helper()
	train, test, err := prepProfile("retailrocket-sim", quick)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(train, 500)
	if err != nil {
		t.Fatal(err)
	}
	return train, idx, loadgen.ClickWorkload(test, 0)
}

func TestQualityBaselineQuick(t *testing.T) {
	train, idx, steps := quickQualityWorkload(t)
	base, err := offlineBaseline(idx, steps, "retailrocket-sim", trainPopularity(train), train.NumItems)
	if err != nil {
		t.Fatal(err)
	}
	if base.K <= 0 || base.Events == 0 || base.MRR <= 0 || base.HitRate <= 0 {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	if len(base.RankDist) != base.K {
		t.Errorf("rank dist has %d entries, want %d", len(base.RankDist), base.K)
	}
	var sum float64
	for _, p := range base.RankDist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("rank dist sums to %v, want 1", sum)
	}
	if base.CondMRR < base.MRR {
		t.Errorf("cond MRR %.4f below unconditional %.4f", base.CondMRR, base.MRR)
	}
	if base.Coverage <= 0 || base.Coverage > 1 {
		t.Errorf("coverage = %v", base.Coverage)
	}
}

// TestExposurePipeline: the pipeline the quality loop reads off a response
// matches what the server did. A list ends in a zero-score item exactly when
// the server counted it as padded, so it is attributed to knn+popular; a
// request without consent is depersonalised whatever its list.
func TestExposurePipeline(t *testing.T) {
	_, idx, steps := quickQualityWorkload(t)
	// The loop's own config never pads; padding is switched on here so every
	// pipeline occurs.
	cfg := qualityServingConfig()
	cfg.FallbackToPopular = true
	srv, err := serving.NewServer(idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The labelled workload, every fourth request without consent, then
	// first clicks on items outside the index, which only padding can fill.
	var reqs []serving.Request
	for i, st := range steps {
		req := st.Request
		req.Consent = i%4 != 0
		reqs = append(reqs, req)
	}
	for i := 0; i < 4; i++ {
		reqs = append(reqs, serving.Request{SessionKey: "cold-" + itoaU(uint64(i)), Item: sessions.ItemID(idx.NumItems() + i), Consent: true})
	}
	paddedTotal := srv.Registry().Counter("serenade_fallback_padded_total", "")
	seen := map[string]int{}
	for i, req := range reqs {
		before := paddedTotal.Value()
		resp, err := srv.Recommend(req)
		if err != nil {
			t.Fatal(err)
		}
		padded := paddedTotal.Value() > before
		got := exposurePipeline(req.Consent, resp.Items)
		want := "knn"
		switch {
		case !req.Consent:
			want = "depersonalised"
		case padded:
			want = "knn+popular"
		}
		if got != want {
			t.Fatalf("request %d (consent %v, padded %v): pipeline %q, want %q", i, req.Consent, padded, got, want)
		}
		seen[got]++
	}
	for _, p := range pipelines {
		if seen[p] == 0 {
			t.Errorf("workload never exercised pipeline %q: %v", p, seen)
		}
	}
}
