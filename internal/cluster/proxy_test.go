package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"

	"serenade/internal/core"
	"serenade/internal/serving"
	"serenade/internal/synth"
)

func testIndex(t *testing.T) *core.Index {
	t.Helper()
	ds, err := synth.Generate(synth.Small(66))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := core.BuildIndex(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// startBackends runs n real serving instances behind httptest servers and
// returns the proxy wired to them plus the backing servers.
func startBackends(t *testing.T, n int) (*Proxy, []*serving.Server) {
	t.Helper()
	idx := testIndex(t)
	proxy := NewProxy()
	var servers []*serving.Server
	for i := 0; i < n; i++ {
		srv, err := serving.NewServer(idx, serving.Config{Params: core.Params{M: 100, K: 50}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { srv.Close() })
		u, _ := url.Parse(ts.URL)
		proxy.AddBackend(fmt.Sprintf("pod-%d", i), u)
		servers = append(servers, srv)
	}
	return proxy, servers
}

func TestProxyRequiresSessionKey(t *testing.T) {
	proxy, _ := startBackends(t, 1)
	front := httptest.NewServer(proxy)
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/recommend?item_id=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400 without session key", resp.StatusCode)
	}
}

func TestProxyNoBackends(t *testing.T) {
	front := httptest.NewServer(NewProxy())
	defer front.Close()
	resp, err := http.Get(front.URL + "/v1/recommend?session_id=u&item_id=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
}

func TestProxyStickyAffinity(t *testing.T) {
	proxy, servers := startBackends(t, 3)
	front := httptest.NewServer(proxy)
	defer front.Close()

	// Drive one session through the proxy; its state must accumulate on
	// exactly one backend.
	for i := 1; i <= 4; i++ {
		url := fmt.Sprintf("%s/v1/recommend?session_id=sticky&item_id=%d", front.URL, i)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var out serving.Response
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if out.SessionLength != i {
			t.Fatalf("request %d: session length %d, want %d", i, out.SessionLength, i)
		}
	}
	withState := 0
	for _, srv := range servers {
		if _, ok := srv.SessionState("sticky"); ok {
			withState++
		}
	}
	if withState != 1 {
		t.Errorf("session state on %d backends, want 1", withState)
	}
}

func TestProxyHeaderKey(t *testing.T) {
	proxy, _ := startBackends(t, 2)
	front := httptest.NewServer(proxy)
	defer front.Close()

	req, _ := http.NewRequest("GET", front.URL+"/v1/recommend?session_id=h1&item_id=2", nil)
	req.Header.Set("X-Session-Id", "ignored-because-query-wins")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}

	// Header-only requests (e.g. POST with a JSON body) also route.
	req2, _ := http.NewRequest("GET", front.URL+"/healthz", nil)
	req2.Header.Set("X-Session-Id", "h2")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("header-routed status = %d", resp2.StatusCode)
	}
}

func TestProxyBackendRemoval(t *testing.T) {
	proxy, _ := startBackends(t, 2)
	front := httptest.NewServer(proxy)
	defer front.Close()

	get := func(session string) int {
		resp, err := http.Get(fmt.Sprintf("%s/v1/recommend?session_id=%s&item_id=1", front.URL, session))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 20; i++ {
		if got := get(fmt.Sprintf("u%d", i)); got != http.StatusOK {
			t.Fatalf("pre-removal status = %d", got)
		}
	}
	proxy.RemoveBackend("pod-0")
	if got := len(proxy.Backends()); got != 1 {
		t.Fatalf("backends = %d, want 1", got)
	}
	for i := 0; i < 20; i++ {
		if got := get(fmt.Sprintf("u%d", i)); got != http.StatusOK {
			t.Fatalf("post-removal status = %d (sessions must remap)", got)
		}
	}
}

// TestProxyDoesNotRetryRecommend: GET /v1/recommend appends the click, so a
// forward that failed after the backend served it must not be replayed; a
// retry would count the click twice.
func TestProxyDoesNotRetryRecommend(t *testing.T) {
	srv, err := serving.NewServer(testIndex(t), serving.Config{Params: core.Params{M: 100, K: 50}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var calls atomic.Int32
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		// Serve the request, then drop the connection before answering.
		srv.Handler().ServeHTTP(httptest.NewRecorder(), r)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer backend.Close()
	proxy := NewProxy()
	u, _ := url.Parse(backend.URL)
	proxy.AddBackend("pod-0", u)
	front := httptest.NewServer(proxy)
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/recommend?session_id=once&item_id=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend saw %d calls, want 1", got)
	}
	if state, _ := srv.SessionState("once"); len(state) != 1 {
		t.Errorf("stored session has %d clicks, want 1", len(state))
	}
}
