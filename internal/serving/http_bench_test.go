package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// benchResponseWriter is a reusable ResponseWriter so the benchmark measures
// the server's per-request allocations, not the recorder's.
type benchResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *benchResponseWriter) Header() http.Header { return w.h }
func (w *benchResponseWriter) WriteHeader(s int)   { w.status = s }
func (w *benchResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// resettableBody replays a fixed payload as an http.Request body without a
// per-request reader allocation.
type resettableBody struct{ bytes.Reader }

func (b *resettableBody) Close() error { return nil }

// benchRequests prepares n distinct recommend POSTs (distinct sessions) with
// reusable bodies. Shared between the benchmarks and the alloc-budget test,
// so the budget test measures exactly what the benchmark reports.
func benchRequests(b testing.TB, n int) ([]*http.Request, []*resettableBody) {
	b.Helper()
	reqs := make([]*http.Request, n)
	bodies := make([]*resettableBody, n)
	for i := range reqs {
		payload, err := json.Marshal(Request{
			SessionKey: fmt.Sprintf("bench-%d", i),
			Item:       popularItem(),
			Consent:    true,
		})
		if err != nil {
			b.Fatal(err)
		}
		body := &resettableBody{}
		body.Reset(payload)
		req, err := http.NewRequest(http.MethodPost, "/v1/recommend", body)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		reqs[i] = req
		bodies[i] = body
	}
	return reqs, bodies
}

func benchServe(b *testing.B, h http.Handler, reqs []*http.Request, bodies []*resettableBody) {
	b.Helper()
	w := &benchResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(reqs)
		if bodies[j] != nil {
			bodies[j].Seek(0, io.SeekStart)
		}
		w.status = 0
		h.ServeHTTP(w, reqs[j])
		if w.status != http.StatusOK {
			b.Fatalf("status = %d", w.status)
		}
	}
}

// BenchmarkHTTPRecommendPOST is the full-stack recommend path: mux routing,
// body decode, session update, kernel, business rules, response encode.
func BenchmarkHTTPRecommendPOST(b *testing.B) {
	s := testServer(b, Config{})
	reqs, bodies := benchRequests(b, 64)
	benchServe(b, s.Handler(), reqs, bodies)
}

// BenchmarkHTTPRecommendGET is the frontend-beacon form (query string).
func BenchmarkHTTPRecommendGET(b *testing.B) {
	s := testServer(b, Config{})
	reqs := make([]*http.Request, 64)
	bodies := make([]*resettableBody, 64)
	for i := range reqs {
		req, err := http.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/recommend?session_id=bench-get-%d&item_id=0", i), nil)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = req
	}
	benchServe(b, s.Handler(), reqs, bodies)
}

// BenchmarkHTTPIdempotentReplay measures the stored-response replay path.
func BenchmarkHTTPIdempotentReplay(b *testing.B) {
	s := testServer(b, Config{})
	reqs, bodies := benchRequests(b, 1)
	reqs[0].Header.Set(IdempotencyKeyHeader, "bench-idem-key")
	benchServe(b, s.Handler(), reqs, bodies)
}

// BenchmarkHTTPKeyedFullTable is a keyed POST with a fresh key per request,
// after 1,000 and after 70,000 distinct keys: below and past the
// idempotency table's 65,536 slots. The two should read the same.
func BenchmarkHTTPKeyedFullTable(b *testing.B) {
	for _, after := range []int{1000, 70000} {
		b.Run(fmt.Sprintf("after=%d", after), func(b *testing.B) {
			s := testServer(b, Config{})
			h := s.Handler()
			reqs, bodies := benchRequests(b, 1)
			keys := make([][]string, after+b.N)
			for i := range keys {
				keys[i] = []string{fmt.Sprintf("bench-keyed-%08d", i)}
			}
			w := &benchResponseWriter{h: make(http.Header)}
			serve := func(i int) {
				bodies[0].Seek(0, io.SeekStart)
				reqs[0].Header[IdempotencyKeyHeader] = keys[i]
				w.status = 0
				h.ServeHTTP(w, reqs[0])
				if w.status != http.StatusOK {
					b.Fatalf("status = %d", w.status)
				}
			}
			for i := 0; i < after; i++ {
				serve(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(after + i)
			}
		})
	}
}
