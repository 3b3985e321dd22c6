package serving

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// Steady-state allocation budgets for the HTTP edge, in allocations per
// request through the full handler stack (mux routing, decode, kernel,
// encode). These are regression tripwires, not aspirations: the
// remaining allocations are accounted for one by one (the session-key
// string the kvstore retains, the trace/span id backing, and the
// X-Request-Id header value slice), so any new allocation on the hot path
// fails the test by name.
const (
	allocBudgetRecommendPost = 3 // session key + trace/span ids + request-id header value
	allocBudgetRecommendGet  = 2 // key is a RawQuery substring; ids + header value remain
	allocBudgetReplay        = 3 // stored-bytes replay still mints ids
)

// allocEps absorbs the occasional sync.Pool refill after a GC cycle lands
// mid-measurement; a real per-request regression adds ≥1 whole allocation.
const allocEps = 0.25

// measureAllocs drives one prepared request through the handler repeatedly
// and returns the mean allocations per request, after a warm-up that grows
// every pooled buffer to its steady-state size.
func measureAllocs(t *testing.T, h http.Handler, req *http.Request, body *resettableBody) float64 {
	t.Helper()
	w := &benchResponseWriter{h: make(http.Header)}
	serve := func() {
		if body != nil {
			body.Seek(0, io.SeekStart)
		}
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status = %d", w.status)
		}
	}
	for i := 0; i < 100; i++ {
		serve()
	}
	return testing.AllocsPerRun(200, serve)
}

func checkBudget(t *testing.T, name string, got float64, budget float64) {
	t.Helper()
	if got > budget+allocEps {
		t.Errorf("%s: %.2f allocs/request, budget %.0f", name, got, budget)
	}
}

// TestHTTPAllocBudgets pins the allocs-per-request of every hot endpoint.
// The budgets assume uninstrumented builds; under -race the detector's own
// bookkeeping allocates, so the test skips there (the aliasing hammer in
// aliasing_test.go is the -race counterpart).
func TestHTTPAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}

	t.Run("RecommendPostMiss", func(t *testing.T) {
		s := testServer(t, Config{})
		reqs, bodies := benchRequests(t, 1)
		got := measureAllocs(t, s.Handler(), reqs[0], bodies[0])
		checkBudget(t, "POST /v1/recommend", got, allocBudgetRecommendPost)
	})

	t.Run("RecommendGet", func(t *testing.T) {
		s := testServer(t, Config{})
		req, err := http.NewRequest(http.MethodGet, "/v1/recommend?session_id=alloc-get&item_id=0", nil)
		if err != nil {
			t.Fatal(err)
		}
		got := measureAllocs(t, s.Handler(), req, nil)
		checkBudget(t, "GET /v1/recommend", got, allocBudgetRecommendGet)
	})

	t.Run("IdempotentReplay", func(t *testing.T) {
		s := testServer(t, Config{})
		reqs, bodies := benchRequests(t, 1)
		reqs[0].Header.Set(IdempotencyKeyHeader, "alloc-idem-key")
		got := measureAllocs(t, s.Handler(), reqs[0], bodies[0])
		checkBudget(t, "POST /v1/recommend (idempotent replay)", got, allocBudgetReplay)
	})

	t.Run("RecommendPostKeyed", func(t *testing.T) {
		// A fresh key per request at a full table: each insert evicts a slot
		// whose buffers already fit, so the table adds no allocation. A small
		// table keeps the fill cheap; the code path is the same at any size.
		s := testServer(t, Config{})
		s.replay = newReplayTable(256, DefaultIdempotencyTTL, s.cfg.Now)
		payload, err := json.Marshal(Request{SessionKey: "alloc-keyed", Item: popularItem()})
		if err != nil {
			t.Fatal(err)
		}
		body := &resettableBody{}
		body.Reset(payload)
		req, err := http.NewRequest(http.MethodPost, "/v1/recommend", body)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([][]string, 4096)
		for i := range keys {
			keys[i] = []string{fmt.Sprintf("alloc-keyed-%06d", i)}
		}
		n := 0
		h := s.Handler()
		keyed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header[IdempotencyKeyHeader] = keys[n%len(keys)]
			n++
			h.ServeHTTP(w, r)
		})
		w := &benchResponseWriter{h: make(http.Header)}
		for s.replay.occupied.Load() < 256 {
			body.Seek(0, io.SeekStart)
			keyed.ServeHTTP(w, req)
		}
		got := measureAllocs(t, keyed, req, body)
		checkBudget(t, "POST /v1/recommend (fresh key, full idempotency table)", got, allocBudgetRecommendPost)
	})
}
