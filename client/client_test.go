package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"serenade/internal/core"
	"serenade/internal/serving"
	"serenade/internal/synth"
)

func newServing(t *testing.T) *serving.Server {
	t.Helper()
	ds, err := synth.Generate(synth.Small(44))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serving.NewServer(idx, serving.Config{Params: core.Params{M: 100, K: 50}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func startServer(t *testing.T) (*httptest.Server, *serving.Server) {
	t.Helper()
	srv := newServing(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func newClient(t *testing.T, base string) *Client {
	t.Helper()
	c, err := New(Options{BaseURL: base, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []string{"", "not a url", "/relative"} {
		if _, err := New(Options{BaseURL: bad}); err == nil {
			t.Errorf("base URL %q accepted", bad)
		}
	}
	if _, err := New(Options{BaseURL: "http://localhost:8080"}); err != nil {
		t.Errorf("valid base URL rejected: %v", err)
	}
}

func TestRecommendRoundTrip(t *testing.T) {
	ts, _ := startServer(t)
	c := newClient(t, ts.URL)
	ctx := context.Background()

	resp, err := c.Recommend(ctx, "u1", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) == 0 {
		t.Error("no recommendations over the client")
	}
	if resp.SessionLength != 1 {
		t.Errorf("session length = %d, want 1", resp.SessionLength)
	}
	resp2, err := c.Recommend(ctx, "u1", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.SessionLength != 2 {
		t.Errorf("session did not accumulate: %d", resp2.SessionLength)
	}
}

func TestRecommendRequiresSession(t *testing.T) {
	ts, _ := startServer(t)
	c := newClient(t, ts.URL)
	if _, err := c.Recommend(context.Background(), "", 1, true); err == nil {
		t.Error("empty session key accepted")
	}
}

func TestExplainAndStatsAndHealth(t *testing.T) {
	ts, _ := startServer(t)
	c := newClient(t, ts.URL)
	ctx := context.Background()

	if !c.Healthy(ctx) {
		t.Error("healthy server reported unhealthy")
	}
	resp, err := c.Recommend(ctx, "ex", 0, true)
	if err != nil || len(resp.Items) == 0 {
		t.Fatalf("setup: %v", err)
	}
	ex, err := c.Explain(ctx, "ex", resp.Items[0].Item)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Score <= 0 {
		t.Error("empty explanation over the client")
	}
	// Explain on an unknown session is a 404, surfaced with its status.
	_, err = c.Explain(ctx, "nobody", 1)
	if StatusCode(err) != http.StatusNotFound {
		t.Errorf("status = %d, want 404", StatusCode(err))
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 {
		t.Error("stats show no requests")
	}
}

func TestRetriesOn5xx(t *testing.T) {
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"items":[],"session_length":1}`))
	}))
	defer flaky.Close()

	c, err := New(Options{BaseURL: flaky.URL, Timeout: time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recommend(context.Background(), "u", 1, true); err != nil {
		t.Fatalf("retry did not recover from 502: %v", err)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", calls.Load())
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad", http.StatusBadRequest)
	}))
	defer srv.Close()

	c, _ := New(Options{BaseURL: srv.URL, Timeout: time.Second, Retries: 3})
	_, err := c.Recommend(context.Background(), "u", 1, true)
	if StatusCode(err) != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", StatusCode(err))
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (client errors must not retry)", calls.Load())
	}
}

// TestDuplicateClickRetryDeduplicated reproduces the duplicate-click
// failure mode end-to-end: the server appends the click but the response is
// lost on the network, the client times out and retries with the same
// X-Idempotency-Key, and the server must replay the stored response instead
// of counting the click twice.
func TestDuplicateClickRetryDeduplicated(t *testing.T) {
	srv := newServing(t)
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First attempt: fully processed server-side, response
			// discarded; stall past the client timeout so it retries.
			srv.Handler().ServeHTTP(httptest.NewRecorder(), r)
			time.Sleep(200 * time.Millisecond)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	c, err := New(Options{BaseURL: ts.URL, Timeout: 50 * time.Millisecond, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Recommend(context.Background(), "dup", 7, true)
	if err != nil {
		t.Fatalf("retry did not recover the lost response: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("calls = %d, want 2 (one lost, one replayed)", got)
	}
	if resp.SessionLength != 1 {
		t.Errorf("session length = %d, want 1: the retry appended the click again", resp.SessionLength)
	}
	if state, ok := srv.SessionState("dup"); !ok || len(state) != 1 {
		t.Errorf("stored session = %v, %v; want exactly the one click", state, ok)
	}
}

func TestDisableRetries(t *testing.T) {
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		// A single-attempt client has no retry to deduplicate.
		if key := r.Header.Get(serving.IdempotencyKeyHeader); key != "" {
			t.Errorf("idempotency key %q sent with retries disabled", key)
		}
		http.Error(w, "transient", http.StatusBadGateway)
	}))
	defer flaky.Close()

	// DisableRetries must win even when Retries asks for more attempts.
	c, err := New(Options{BaseURL: flaky.URL, Timeout: time.Second, Retries: 5, DisableRetries: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Recommend(context.Background(), "u", 1, true)
	if StatusCode(err) != http.StatusBadGateway {
		t.Fatalf("err = %v, want the 502 surfaced", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 with retries disabled", calls.Load())
	}
}

// TestContextCancelledDuringAttempt: a context cancelled while an attempt
// is in flight must stop the retry loop before another transport call.
func TestContextCancelledDuringAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		cancel() // the caller gives up while the request is being served
		http.Error(w, "transient", http.StatusBadGateway)
	}))
	defer srv.Close()

	c, _ := New(Options{BaseURL: srv.URL, Timeout: time.Second, Retries: 3})
	_, err := c.Recommend(ctx, "u", 1, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (no attempts after cancellation)", calls.Load())
	}
}

func TestTimeoutSurfaces(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
	}))
	defer slow.Close()

	c, _ := New(Options{BaseURL: slow.URL, Timeout: 10 * time.Millisecond, Retries: 1})
	if _, err := c.Recommend(context.Background(), "u", 1, true); err == nil {
		t.Error("timeout did not surface")
	}
}

func TestContextCancellation(t *testing.T) {
	ts, _ := startServer(t)
	c := newClient(t, ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Recommend(ctx, "u", 1, true); err == nil {
		t.Error("cancelled context did not surface")
	}
}

func TestStatusCodeHelper(t *testing.T) {
	if StatusCode(nil) != 0 {
		t.Error("nil error should give status 0")
	}
	if StatusCode(context.Canceled) != 0 {
		t.Error("non-API error should give status 0")
	}
}
