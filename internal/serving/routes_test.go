package serving

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// publicRoutes is every pattern the public mux may serve. A route missing
// from the server or present without an entry here fails TestRoutes, so a
// new endpoint on the serving port is a reviewed change to this list.
var publicRoutes = map[string]bool{
	"POST /v1/recommend":   true,
	"GET /v1/recommend":    true,
	"GET /v1/session/{id}": true,
	"GET /v1/explain":      true,
	"GET /v1/trending":     true,
	"GET /healthz":         true,
	"GET /metrics":         true,
	"GET /metrics.prom":    true,
	"GET /debug/traces":    true,
	"GET /debug/slo":       true,
	"GET /debug/health":    true,
}

// TestRoutes pins the public route set to the list above and checks that
// Handler's mux routes each pattern to itself.
func TestRoutes(t *testing.T) {
	s := testServer(t, Config{})
	mux := s.Handler().(interface {
		Handler(*http.Request) (http.Handler, string)
	})
	seen := map[string]bool{}
	for _, rt := range s.routes() {
		if !publicRoutes[rt.pattern] {
			t.Errorf("route %q is not on the public route list", rt.pattern)
		}
		seen[rt.pattern] = true
		method, path, _ := strings.Cut(rt.pattern, " ")
		req := httptest.NewRequest(method, strings.ReplaceAll(path, "{id}", "u1"), nil)
		if _, got := mux.Handler(req); got != rt.pattern {
			t.Errorf("%s %s routes to %q, want %q", method, req.URL.Path, got, rt.pattern)
		}
	}
	for p := range publicRoutes {
		if !seen[p] {
			t.Errorf("public route %q is not served", p)
		}
	}
}
