package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentRequestsNoAliasing hammers the pooled-scratch edge from many
// goroutines and checks that every response carries its own session's state.
// The failure mode it exists for: a response buffer, session slice, or items
// slice recycled into another in-flight request would garble the JSON or
// leak another session's session_length. Run it under -race; the pools make
// any cross-request sharing a detector hit as well as an assertion failure.
func TestConcurrentRequestsNoAliasing(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	const goroutines = 8
	const iters = 60

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("alias-%d", g)
			for i := 0; i < iters; i++ {
				body := fmt.Sprintf(`{"session_id":%q,"item_id":0,"consent":true}`, key)
				req := httptest.NewRequest(http.MethodPost, "/v1/recommend", strings.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d iter %d: status %d: %s", g, i, w.Code, w.Body.String())
					return
				}
				var resp Response
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: garbled response %q: %v", g, i, w.Body.String(), err)
					return
				}
				// Each goroutine owns its session, so its length must track its
				// own iteration count — a cross-request scratch mixup surfaces
				// as another goroutine's (different) length.
				if want := i + 1; want <= 20 && resp.SessionLength != want {
					errs <- fmt.Errorf("goroutine %d iter %d: session_length = %d, want %d", g, i, resp.SessionLength, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentIdempotentReplayNoAliasing replays one stored idempotent
// response from many goroutines at once; every replay must be byte-identical
// to the original. The replay path copies the stored bytes into a pooled
// buffer, so a recycled buffer shared between two in-flight replays would
// diverge here.
func TestConcurrentIdempotentReplayNoAliasing(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	body := `{"session_id":"alias-idem","item_id":0,"consent":true}`
	original := append([]byte(nil), postRecommend(t, h, "alias-idem", "alias-idem-key", 0).Body.Bytes()...)

	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/recommend", strings.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set(IdempotencyKeyHeader, "alias-idem-key")
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d iter %d: status %d", g, i, w.Code)
					return
				}
				if w.Header().Get(IdempotencyReplayHeader) != "true" {
					errs <- fmt.Errorf("goroutine %d iter %d: replay not flagged", g, i)
					return
				}
				if !bytes.Equal(w.Body.Bytes(), original) {
					errs <- fmt.Errorf("goroutine %d iter %d: replay diverged:\n got %q\nwant %q", g, i, w.Body.Bytes(), original)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
