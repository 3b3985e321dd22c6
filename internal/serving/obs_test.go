package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"serenade/internal/obs"
)

// TestRequestTrace drives one request through the HTTP handler and checks the
// acceptance criterion end to end: /debug/traces holds exactly one trace
// whose per-stage durations sum to within 10% of the recorded total, and the
// response carries the trace id in X-Request-Id.
func TestRequestTrace(t *testing.T) {
	s := testServer(t, Config{TraceSampleEvery: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/recommend?session_id=u1&item_id=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	reqID := resp.Header.Get(obs.RequestIDHeader)
	if len(reqID) != 32 {
		t.Fatalf("X-Request-Id = %q, want 32-hex trace id", reqID)
	}

	tr, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var payload struct {
		Finished uint64 `json:"finished"`
		Sampled  uint64 `json:"sampled"`
		Traces   []struct {
			TraceID  string           `json:"trace_id"`
			Op       string           `json:"op"`
			TotalNS  int64            `json:"total_ns"`
			StagesNS map[string]int64 `json:"stages_ns"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(payload.Traces))
	}
	got := payload.Traces[0]
	if got.TraceID != reqID {
		t.Errorf("trace id %q != X-Request-Id %q", got.TraceID, reqID)
	}
	if got.Op != "recommend" {
		t.Errorf("op = %q", got.Op)
	}
	var stageSum int64
	for _, ns := range got.StagesNS {
		stageSum += ns
	}
	if stageSum <= 0 || stageSum > got.TotalNS {
		t.Fatalf("stage sum %d out of range (total %d)", stageSum, got.TotalNS)
	}
	if miss := float64(got.TotalNS-stageSum) / float64(got.TotalNS); miss > 0.10 {
		t.Errorf("stages cover only %.0f%% of total (%d of %d ns)",
			100*(1-miss), stageSum, got.TotalNS)
	}
}

// TestStagePartition pins the stage attribution of the prediction path: the
// stages of a request partition its total, and every request reports both
// candidates and score, a repeat of the same click path included.
func TestStagePartition(t *testing.T) {
	s := testServer(t, Config{TraceSampleEvery: 1})
	for _, key := range []string{"a", "b"} {
		if _, err := s.Recommend(Request{SessionKey: key, Item: popularItem(), Consent: true}); err != nil {
			t.Fatal(err)
		}
	}
	spans := s.Tracer().Recent()
	if len(spans) != 2 {
		t.Fatalf("got %d traces, want 2", len(spans))
	}
	for i, sp := range spans {
		if sum := sp.StageSum(); sum > sp.Total || sp.Total-sum > sp.Total/10 {
			t.Errorf("trace %d: stages sum to %v, total %v", i, sum, sp.Total)
		}
		if cand, score := sp.Stages[obs.StageCandidates], sp.Stages[obs.StageScore]; cand <= 0 || score <= 0 {
			t.Errorf("trace %d: kernel ran but candidates=%v score=%v", i, cand, score)
		}
	}
}

// TestTracePropagation checks that a caller-supplied Traceparent header is
// continued rather than replaced: the server's span must adopt the remote
// trace id and record the remote span as its parent.
func TestTracePropagation(t *testing.T) {
	s := testServer(t, Config{TraceSampleEvery: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, _ := http.NewRequest("GET", ts.URL+"/v1/recommend?session_id=u1&item_id=0", nil)
	req.Header.Set(obs.TraceparentHeader, parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "0123456789abcdef0123456789abcdef" {
		t.Errorf("X-Request-Id = %q, want propagated trace id", got)
	}

	traces := s.Tracer().Recent()
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	if traces[0].TraceID != "0123456789abcdef0123456789abcdef" {
		t.Errorf("trace id = %q", traces[0].TraceID)
	}
	if traces[0].ParentID != "00f067aa0ba902b7" {
		t.Errorf("parent id = %q", traces[0].ParentID)
	}
}

// TestStatsStageBreakdown checks that Stats reports a per-stage latency
// breakdown after traffic.
func TestStatsStageBreakdown(t *testing.T) {
	s := testServer(t, Config{})
	for i := 0; i < 5; i++ {
		if _, err := s.Recommend(Request{SessionKey: "u", Item: 0, Consent: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Requests != 5 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if len(st.Stages) == 0 {
		t.Fatal("no stage breakdown in Stats")
	}
	byName := map[string]StageStats{}
	for _, sg := range st.Stages {
		byName[sg.Stage] = sg
	}
	for _, want := range []string{"store", "candidates", "score", "filter"} {
		sg, ok := byName[want]
		if !ok {
			t.Errorf("stage %q missing from breakdown", want)
			continue
		}
		if sg.Count != 5 {
			t.Errorf("stage %q count = %d, want 5", want, sg.Count)
		}
	}
}

// lockedBuffer lets the slog handler and the test goroutine share a buffer.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestSlowQueryLogging sets a 1ns threshold so every request qualifies and
// checks the structured record reaches the logger.
func TestSlowQueryLogging(t *testing.T) {
	buf := &lockedBuffer{}
	logger := slog.New(slog.NewTextHandler(buf, nil))
	s := testServer(t, Config{
		SlowQueryThreshold: time.Nanosecond,
		Logger:             logger,
	})
	if _, err := s.Recommend(Request{SessionKey: "u", Item: 0, Consent: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query record logged:\n%s", out)
	}
	if !strings.Contains(out, "trace_id=") || !strings.Contains(out, "stage_score=") {
		t.Errorf("slow-query record missing fields:\n%s", out)
	}
	s.FlushSlowLog()
	if !strings.Contains(buf.String(), "slow-query log summary") {
		t.Errorf("no flush summary:\n%s", buf.String())
	}
}

// TestRequestIDPropagation is the request-id satellite: a caller-supplied
// X-Request-Id must be echoed on the response, stamped into slow-query log
// lines, and visible in the retained trace views.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	clock := &testClock{now: time.Unix(1_700_000_000, 0)}
	s := testServer(t, Config{
		Now:                clock.Now,
		SlowQueryThreshold: time.Nanosecond, // every request logs
		Logger:             slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/recommend",
		strings.NewReader(`{"session_id":"u1","item_id":0,"consent":true}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "req-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "req-abc-123" {
		t.Fatalf("echoed request id = %q, want req-abc-123", got)
	}

	// The slow-query log line carries the id.
	if !strings.Contains(logBuf.String(), "request_id=req-abc-123") {
		t.Fatalf("slow log missing request_id:\n%s", logBuf.String())
	}

	// The trace ring carries it too.
	traces, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(traces.Body)
	traces.Body.Close()
	if !strings.Contains(body.String(), `"request_id": "req-abc-123"`) &&
		!strings.Contains(body.String(), `"request_id":"req-abc-123"`) {
		t.Fatalf("trace view missing request_id:\n%s", body.String())
	}

	// Without a caller-supplied id the trace id stands in — never empty.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/recommend",
		strings.NewReader(`{"session_id":"u2","item_id":0,"consent":true}`))
	req2.Header.Set("Content-Type", "application/json")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get(obs.RequestIDHeader) == "" {
		t.Fatal("request id header empty without caller-supplied id")
	}
}
