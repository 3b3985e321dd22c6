package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"serenade/internal/index"
)

func asc(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i + 1)
	}
	return v
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		p    float64
		want int64
	}{
		{"median of 1000", 1000, 0.50, 500},
		{"p90 of 1000", 1000, 0.90, 900},
		{"p99 of 1000 has exactly ten samples beyond", 1000, 0.99, 990},
		{"p99.5 of 1000 has five beyond: falls back to the rank with ten", 1000, 0.995, 990},
		{"p99 of 100 falls back", 100, 0.99, 90},
		{"p90 of 100 has ten beyond", 100, 0.90, 90},
		{"p50 of 12", 12, 0.50, 6},
		{"p90 of 12 falls back to the median", 12, 0.90, 6},
		{"p99 of 25 falls back to rank 15", 25, 0.99, 15},
		{"ten samples or fewer give the median", 10, 0.99, 5},
		{"one sample", 1, 0.90, 1},
		{"none", 0, 0.90, 0},
	} {
		if got := percentile(asc(tc.n), tc.p); got != tc.want {
			t.Errorf("%s: percentile(1..%d, %g) = %d, want %d", tc.name, tc.n, tc.p, got, tc.want)
		}
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	if got := dueOffset(0, 500); got != 0 {
		t.Errorf("request 0 due at %v, want 0", got)
	}
	if got := dueOffset(500, 500); got != time.Second {
		t.Errorf("request 500 at 500/s due at %v, want 1s", got)
	}
	if got := dueOffset(1, 500); got != 2*time.Millisecond {
		t.Errorf("request 1 at 500/s due at %v, want 2ms", got)
	}
	// A second lap continues the schedule instead of restarting it.
	if a, b := dueOffset(14000+3, 500), dueOffset(14000, 500); a-b != 6*time.Millisecond {
		t.Errorf("lap offset broke the spacing: %v", a-b)
	}
}

func TestLatenessAccounting(t *testing.T) {
	ms := int64(time.Millisecond)
	// 200 requests over two seconds. One request stalls: it is sent on time
	// but answered 60 ms after it was due; the next is sent 58 ms late and so
	// misses nothing it would not have missed; one times out.
	samples := make([]sample, 0, 200)
	for i := 0; i < 200; i++ {
		samples = append(samples, sample{end: int64(i) * 10 * ms, lat: ms, svc: ms, kind: answered})
	}
	samples[50] = sample{end: 560 * ms, lat: 60 * ms, svc: 60 * ms, kind: answered}
	samples[51] = sample{end: 570 * ms, lat: 59 * ms, svc: ms, late: 58 * ms, kind: answered}
	samples[52] = sample{end: 575 * ms, lat: 50 * ms, svc: 50 * ms, kind: timedOut}
	samples[199].late = 4 * ms
	samples[198].late = 2 * ms

	st := summarize(samples, 2*time.Second)
	if st.sent != 200 || st.timeouts != 1 || st.httpErrors != 0 {
		t.Fatalf("sent %d timeouts %d http errors %d", st.sent, st.timeouts, st.httpErrors)
	}
	// Answered after the SLA counts as a miss, whether the server or the
	// generator's own backlog made it late.
	if st.ok != 197 || st.slaMisses != 2 {
		t.Errorf("ok = %d, slaMisses = %d, want 197 and 2", st.ok, st.slaMisses)
	}
	if len(st.okLat) != 197 || st.okLat[0] != ms {
		t.Errorf("okLat has %d entries", len(st.okLat))
	}
	if got := st.perSecond; !reflect.DeepEqual(got, []int{97, 100}) {
		t.Errorf("perSecond = %v, want [97 100]", got)
	}
	if st.maxMs != 60 {
		t.Errorf("maxMs = %g, want 60", st.maxMs)
	}
	// The backlog is the mean lateness of the last hundredth of the sends.
	if st.backlogEndMs != 3 {
		t.Errorf("backlogEndMs = %g, want 3", st.backlogEndMs)
	}
	// 200 lateness values, three non-zero: the 99th percentile keeps ten
	// samples beyond it and so reads 0.
	if st.latePct99Us != 0 {
		t.Errorf("latePct99Us = %g, want 0", st.latePct99Us)
	}
}

func TestMediansOverSeconds(t *testing.T) {
	ms := int64(time.Millisecond)
	// Five seconds at 100 req/s and 1 ms; in the fourth second the host
	// stalls: half as many answers, each 5 ms.
	var samples []sample
	for sec := 0; sec < 5; sec++ {
		n, lat := 100, ms
		if sec == 3 {
			n, lat = 50, 5*ms
		}
		for i := 0; i < n; i++ {
			samples = append(samples, sample{end: int64(sec)*1000*ms + int64(i)*ms, lat: lat, svc: lat, kind: answered})
		}
	}
	st := summarize(samples, 5*time.Second)
	if got := goodputPerSecond(st.perSecond); got != 100 {
		t.Errorf("goodput = %g, want 100: the slow second must not move the median", got)
	}
	if p50, p90 := median(st.secP50Ms), median(st.secP90Ms); p50 != 1 || p90 != 1 {
		t.Errorf("p50 %g p90 %g, want 1 and 1", p50, p90)
	}
	// Over the whole window the same stall shows in the tail.
	if got := percentile(st.okLat, 0.90); got != 5*ms {
		t.Errorf("whole-window p90 = %d, want 5ms", got)
	}

	// CPU readings every second: 20 ms of CPU per 100 answers, 30 ms for the
	// stalled second's 50.
	points := []cpuPoint{{0, 1.00}, {time.Second, 1.02}, {2 * time.Second, 1.04}, {3 * time.Second, 1.06}, {4 * time.Second, 1.09}, {5 * time.Second, 1.11}}
	if got := cpuPerRequestUs(points, samples); math.Abs(got-200) > 1e-6 {
		t.Errorf("cpu per request = %g us, want 200", got)
	}
	if got := cpuPerRequestUs(points[:1], samples); got != 0 {
		t.Errorf("one reading makes no slice, got %g", got)
	}
}

func TestRateDrift(t *testing.T) {
	if got := rateDrift([]int{100, 100, 100, 100, 100, 100}); got != 1 {
		t.Errorf("steady rate drifts %g", got)
	}
	if got := rateDrift([]int{600, 600, 600, 300, 100, 100, 100}); got != 1.0/6 {
		t.Errorf("a cliff inside the window reads %g, want 1/6", got)
	}
	if got := rateDrift([]int{5}); got != 1 {
		t.Errorf("a window too short to split reads %g, want 1", got)
	}
}

const promBefore = `# HELP serenade_requests_total Recommendation requests served.
# TYPE serenade_requests_total counter
serenade_requests_total 100
serenade_idempotency_entries 40
serenade_stage_latency_seconds_sum{stage="store"} 0.001
serenade_stage_latency_seconds_bucket{stage="store",le="+Inf"} 100
serenade_request_latency_seconds_sum 0.05
`

const promAfter = `serenade_requests_total 1100
serenade_idempotency_entries 65536
serenade_stage_latency_seconds_sum{stage="store"} 0.0085
serenade_stage_latency_seconds_bucket{stage="store",le="+Inf"} 1100
serenade_request_latency_seconds_sum 1.234e+00
garbage line without a number x
`

func TestPromDelta(t *testing.T) {
	d := promDelta{parseProm(promBefore), parseProm(promAfter)}
	if got := d.delta("serenade_requests_total"); got != 1000 {
		t.Errorf("requests delta = %g", got)
	}
	if got := d.delta(`serenade_stage_latency_seconds_sum{stage="store"}`); got < 0.00749 || got > 0.00751 {
		t.Errorf("labelled series delta = %g", got)
	}
	if got := d.delta("serenade_request_latency_seconds_sum"); got != 1.234-0.05 {
		t.Errorf("exponent-format value delta = %g", got)
	}
	if got := d.gauge("serenade_idempotency_entries"); got != 65536 {
		t.Errorf("gauge = %g", got)
	}
	if got := d.delta("serenade_result_cache_hits_total"); got != 0 {
		t.Errorf("a series the server does not export reads %g, want 0", got)
	}
}

func TestProcParsers(t *testing.T) {
	// The command field holds spaces and a parenthesis.
	stat := "4242 (serenade) server) S 1 4242 4242 0 -1 4194560 9000 0 0 0 1234 567 0 0 20 0 9 0 100 1000000 5000 18446744073709551615"
	ticks, err := parseProcStatTicks(stat)
	if err != nil || ticks != 1234+567 {
		t.Errorf("ticks = %d, %v; want 1801", ticks, err)
	}
	if _, err := parseProcStatTicks("4242 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}
	if _, err := parseProcStatTicks("no command field"); err == nil {
		t.Error("a line without a command parsed")
	}
	status := "Name:\tserenade-server\nVmHWM:\t   95232 kB\nVmRSS:\t   94208 kB\n"
	if got := parseProcStatusKB(status, "VmHWM"); got != 95232 {
		t.Errorf("VmHWM = %g", got)
	}
	if got := parseProcStatusKB(status, "VmSwap"); got != 0 {
		t.Errorf("a missing key reads %g", got)
	}
}

func TestSpanMeans(t *testing.T) {
	// Two requests after one skipped; request 1 calls kvstore.get once,
	// request 2 twice.
	us := int64(time.Microsecond)
	spans := []span{
		{Pass: passLayers, Name: "layers", Req: 0, ID: 0, Parent: -1, Start: 0, End: 1000 * us},
		{Pass: passLayers, Name: "layers", Req: 1, ID: 1, Parent: -1, Start: 0, End: 10 * us},
		{Pass: passLayers, Name: "kvstore.get", Req: 1, ID: 2, Parent: 1, Start: 1 * us, End: 3 * us},
		{Pass: passLayers, Name: "layers", Req: 2, ID: 3, Parent: -1, Start: 20 * us, End: 40 * us},
		{Pass: passLayers, Name: "kvstore.get", Req: 2, ID: 4, Parent: 3, Start: 21 * us, End: 25 * us},
		{Pass: passLayers, Name: "kvstore.get", Req: 2, ID: 5, Parent: 3, Start: 30 * us, End: 36 * us},
		{Pass: passServer, Name: "serving.Recommend", Req: 1, ID: 6, Parent: -1, Start: 0, End: 500 * us},
	}
	perCall, perReq := spanMeans(spans, passLayers, 1, 3)
	if perCall["kvstore.get"] != 4 || perReq["kvstore.get"] != 6 {
		t.Errorf("kvstore.get per call %g per request %g, want 4 and 6", perCall["kvstore.get"], perReq["kvstore.get"])
	}
	// A pass's self time is its root minus what the pass inside it measured.
	if perReq["layers"] != 15 || perReq["layers"]-perReq["kvstore.get"] != 9 {
		t.Errorf("layers per request %g, minus kvstore.get %g; want 15 and 9", perReq["layers"], perReq["layers"]-perReq["kvstore.get"])
	}
	if _, ok := perReq["serving.Recommend"]; ok {
		t.Error("a span of another pass was counted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4): the top cut is clamped
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %g %g %g, want 1 2 3", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4): both outer cuts extrapolate
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4)
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %g %g %g, want 1.5 3 4.5", q1, q2, q3)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); got != 0.1 {
		t.Errorf("lower-is-better 100 -> 110 is worse by %g", got)
	}
	if got := worseBy(1000, 900, "higher"); got != 0.1 {
		t.Errorf("higher-is-better 1000 -> 900 is worse by %g", got)
	}
	if got := worseBy(1000, 1100, "higher"); got >= 0 {
		t.Errorf("an improvement reads as worse by %g", got)
	}
}

func TestManifestMatchesHarness(t *testing.T) {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q", i, m.Workloads[i].Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: manifest has %+v, harness %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	setup := false
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// inputsOf builds everything a run derives from its seed and hashes it.
func inputsOf(t *testing.T, seed int64, workload string) (string, []request) {
	t.Helper()
	ds, err := makeDataset(seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.srn")
	if err := index.SaveFile(path, ds.idx); err != nil {
		t.Fatal(err)
	}
	replay := replayStream(ds.test)
	stream, err := workloadStream(workload, ds, replay, seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := inputsHash(path, stream, replay)
	if err != nil {
		t.Fatal(err)
	}
	return sum, stream
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, _ := inputsOf(t, 7, "cold-first-closed")
	b, _ := inputsOf(t, 7, "cold-first-closed")
	if a != b {
		t.Errorf("seed 7 twice: %s and %s", a, b)
	}
	c, stream := inputsOf(t, 8, "cold-first-closed")
	if a == c {
		t.Errorf("seeds 7 and 8 give the same inputs %s", a)
	}
	// The second seed is as usable as the first: cold items exist, every
	// request opens its own session and consent alternates.
	if len(stream) != coldRequests {
		t.Fatalf("cold-first stream has %d requests", len(stream))
	}
	for i := 1; i < len(stream); i++ {
		if stream[i].Session == stream[i-1].Session || stream[i].Consent == stream[i-1].Consent {
			t.Fatalf("request %d repeats its predecessor's session or consent", i)
		}
	}
}

func TestStreams(t *testing.T) {
	ds, err := makeDataset(3)
	if err != nil {
		t.Fatal(err)
	}
	replay := replayStream(ds.test)
	clicks := 0
	for _, s := range ds.test.Sessions {
		clicks += len(s.Items)
	}
	if len(replay) != clicks {
		t.Fatalf("replay has %d requests for %d held-out clicks", len(replay), clicks)
	}
	// Per session the clicks come in order and each names its successor.
	last := map[int32]request{}
	withNext := 0
	for _, r := range replay {
		if prev, ok := last[r.Session]; ok && prev.Next != r.Item {
			t.Fatalf("session %d: %d follows a click that announced %d", r.Session, r.Item, prev.Next)
		}
		if r.Next != noNext {
			withNext++
		}
		last[r.Session] = r
	}
	if withNext != clicks-len(ds.test.Sessions) {
		t.Errorf("%d requests have a next click, want %d", withNext, clicks-len(ds.test.Sessions))
	}
	for s, r := range last {
		if r.Next != noNext {
			t.Fatalf("session %d ends on a click that announces a successor", s)
		}
	}

	hot := hotLongStream(ds.idx, 3)
	if len(hot) != hotSessions*hotSessionLen {
		t.Fatalf("hot-long stream has %d requests", len(hot))
	}
	floor := ds.idx.DF(itemsByDF(ds.idx)[hotItems-1])
	for _, r := range hot {
		if ds.idx.DF(r.Item) < floor {
			t.Fatalf("hot-long item %d has DF %d, below the %d-th most frequent (%d)", r.Item, ds.idx.DF(r.Item), hotItems, floor)
		}
	}
	if floor < indexCapacity/2 {
		t.Errorf("the %d-th most frequent item has DF %d: under half the capacity %d, the lists are not long", hotItems, floor, indexCapacity)
	}

	cold, err := coldFirstStream(ds.idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cold {
		if ds.idx.DF(r.Item) > coldMaxDF {
			t.Fatalf("cold-first item %d has DF %d", r.Item, ds.idx.DF(r.Item))
		}
	}

	// Sessions stick to one connection, and both connections get work.
	seen := map[int]int{}
	for _, r := range replay {
		seen[connOf(r.Session, 2)]++
	}
	if len(seen) != 2 || seen[0] < len(replay)/4 || seen[1] < len(replay)/4 {
		t.Errorf("connection split %v", seen)
	}
}

func TestKernelWork(t *testing.T) {
	ds, err := makeDataset(3)
	if err != nil {
		t.Fatal(err)
	}
	hot := itemsByDF(ds.idx)
	a, b := hot[0], hot[1]
	stream := []request{
		{Session: 0, Item: a, Consent: true},
		{Session: 0, Item: b, Consent: true},
		{Session: 0, Item: a, Consent: true},  // duplicate in the tail: counted once
		{Session: 1, Item: b, Consent: false}, // no consent: the tail is the click alone
	}
	tail, postings := kernelWork(ds.idx, stream)
	pa, pb := float64(len(ds.idx.Postings(a))), float64(len(ds.idx.Postings(b)))
	if tail != (1+2+3+1)/4.0 {
		t.Errorf("tail length mean %g", tail)
	}
	if want := (pa + (pa + pb) + (pa + pb) + pb) / 4; postings != want {
		t.Errorf("postings per query %g, want %g", postings, want)
	}
}
