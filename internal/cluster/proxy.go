package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"

	"serenade/internal/obs"
)

// Proxy is an HTTP reverse proxy with sticky-session routing: every request
// is forwarded to the backend owning its session key on the consistent-hash
// ring. It models the istio sidecar / Kubernetes session-affinity layer in
// front of the Serenade pods (§4.2) for deployments where the replicas are
// separate processes.
//
// The session key is taken from the `session_id` query parameter or, when
// absent, the X-Session-Id header (for POST bodies the proxy must not
// consume). Requests without a key are rejected, since affinity is the
// correctness contract of the stateful servers.
//
// The proxy participates in distributed tracing: it stamps a Traceparent
// header onto requests that arrive without one (and leaves propagated ones
// untouched), so the backend's span records the hop as its parent. It keeps
// per-backend request/error/retry counters in its own metrics registry,
// scrapeable at GET /proxy/metrics.prom, and retries idempotent requests
// once on a transport failure before answering 502. GET /proxy/health fans
// out to every backend's /debug/health and returns the overload signals
// keyed by replica name.
type Proxy struct {
	mu       sync.RWMutex
	ring     *Ring
	backends map[string]*backend
	reg      *obs.Registry
	health   *http.Client
}

// backend is one upstream with its forwarding proxy and traffic counters.
type backend struct {
	rp       *httputil.ReverseProxy
	target   *url.URL
	requests *obs.Counter
	errors   *obs.Counter
	retries  *obs.Counter
}

// proxyErrKey carries the transport-error slot through the reverse proxy so
// the ErrorHandler can report a failure without writing the response,
// leaving the retry decision to ServeHTTP.
type proxyErrKey struct{}

type proxyErr struct{ err error }

// copyBufPool feeds the reverse proxies' body-copy loops. Without a
// BufferPool, httputil.ReverseProxy allocates a fresh 32 KiB buffer per
// forwarded request; recycling them here makes the proxy's fan-out copies
// steady-state allocation-free, matching the discipline on the serving edge.
type copyBufPool struct{ p sync.Pool }

func (b *copyBufPool) Get() []byte  { return *b.p.Get().(*[]byte) }
func (b *copyBufPool) Put(v []byte) { b.p.Put(&v) }

var proxyCopyBufs = &copyBufPool{p: sync.Pool{New: func() any {
	buf := make([]byte, 32*1024)
	return &buf
}}}

// NewProxy returns a proxy with no backends.
func NewProxy() *Proxy {
	return &Proxy{
		ring:     NewRing(0),
		backends: make(map[string]*backend),
		reg:      obs.NewRegistry(),
		// Short timeout so one wedged replica cannot stall the aggregate
		// /proxy/health view the autoscaler or load test is polling.
		health: &http.Client{Timeout: 2 * time.Second},
	}
}

// Registry exposes the proxy's metrics registry (per-backend counters).
func (p *Proxy) Registry() *obs.Registry { return p.reg }

// AddBackend registers a named backend serving at target. Adding an
// existing name replaces its target; the counters survive the swap so a
// redeployed backend keeps its series.
func (p *Proxy) AddBackend(name string, target *url.URL) {
	rp := httputil.NewSingleHostReverseProxy(target)
	rp.BufferPool = proxyCopyBufs
	rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		if slot, ok := r.Context().Value(proxyErrKey{}).(*proxyErr); ok {
			slot.err = err
			return
		}
		http.Error(w, "upstream error: "+err.Error(), http.StatusBadGateway)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, exists := p.backends[name]; exists {
		b.rp = rp
		b.target = target
		return
	}
	p.ring.Add(name)
	p.backends[name] = &backend{
		rp:       rp,
		target:   target,
		requests: p.reg.Counter("serenade_proxy_backend_requests_total", "Requests forwarded per backend.", "backend", name),
		errors:   p.reg.Counter("serenade_proxy_backend_errors_total", "Forwarding failures per backend (after retries).", "backend", name),
		retries:  p.reg.Counter("serenade_proxy_backend_retries_total", "Idempotent retries per backend.", "backend", name),
	}
}

// RemoveBackend deregisters a backend; its sessions remap to the remaining
// ones (losing their server-side state, the accepted trade-off of §4.2).
// Its counter series stay in the registry as a record of past traffic.
func (p *Proxy) RemoveBackend(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ring.Remove(name)
	delete(p.backends, name)
}

// Backends lists registered backend names.
func (p *Proxy) Backends() []string { return p.ring.Nodes() }

// SessionKey extracts the affinity key from a request. The query string is
// scanned by hand rather than through r.URL.Query(): building url.Values
// allocates a map plus a string per parameter on every forwarded request,
// and the proxy only ever needs the first session_id. The scan mirrors
// url.ParseQuery's semantics — first occurrence wins, segments containing a
// semicolon are skipped — and unescapes only when the value actually
// contains '%' or '+', so the common case returns a substring of RawQuery.
func SessionKey(r *http.Request) string {
	q := r.URL.RawQuery
	for len(q) > 0 {
		seg := q
		if i := strings.IndexByte(q, '&'); i >= 0 {
			seg, q = q[:i], q[i+1:]
		} else {
			q = ""
		}
		if seg == "" || strings.IndexByte(seg, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(seg, "=")
		if k != "session_id" {
			continue
		}
		if strings.IndexByte(v, '%') < 0 && strings.IndexByte(v, '+') < 0 {
			if v != "" {
				return v
			}
			continue
		}
		if dec, err := url.QueryUnescape(v); err == nil && dec != "" {
			return dec
		}
	}
	return r.Header.Get("X-Session-Id")
}

// retryable reports whether a forward that failed with err may be replayed:
// the method must be idempotent and the body must not have been consumed.
// GET /v1/recommend is not idempotent — it appends the click to the session
// — so it is replayed only when the backend cannot have seen it (the dial
// failed); otherwise a retry would count the click twice.
func retryable(r *http.Request, err error) bool {
	if (r.Method != http.MethodGet && r.Method != http.MethodHead) || (r.Body != nil && r.Body != http.NoBody) {
		return false
	}
	var op *net.OpError
	return r.URL.Path != "/v1/recommend" || errors.As(err, &op) && op.Op == "dial"
}

// handleHealth fans a GET /debug/health out to every backend concurrently
// and aggregates the per-replica overload signals, keyed by backend name.
// Unreachable replicas appear under "errors" instead of silently vanishing —
// a wedged pod is exactly the one the operator needs to see.
func (p *Proxy) handleHealth(w http.ResponseWriter, r *http.Request) {
	p.mu.RLock()
	targets := make(map[string]*url.URL, len(p.backends))
	for name, b := range p.backends {
		targets[name] = b.target
	}
	p.mu.RUnlock()

	type result struct {
		name string
		sig  obs.HealthSignal
		err  error
	}
	results := make(chan result, len(targets))
	for name, target := range targets {
		go func(name string, target *url.URL) {
			res := result{name: name}
			res.sig, res.err = p.fetchHealth(r.Context(), target)
			results <- res
		}(name, target)
	}
	out := struct {
		Replicas map[string]obs.HealthSignal `json:"replicas"`
		Errors   map[string]string           `json:"errors,omitempty"`
	}{Replicas: make(map[string]obs.HealthSignal, len(targets))}
	for range targets {
		res := <-results
		if res.err != nil {
			if out.Errors == nil {
				out.Errors = make(map[string]string)
			}
			out.Errors[res.name] = res.err.Error()
			continue
		}
		res.sig.Replica = res.name
		out.Replicas[res.name] = res.sig
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// fetchHealth retrieves one backend's /debug/health snapshot.
func (p *Proxy) fetchHealth(ctx context.Context, target *url.URL) (obs.HealthSignal, error) {
	var sig obs.HealthSignal
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target.JoinPath("debug", "health").String(), nil)
	if err != nil {
		return sig, err
	}
	resp, err := p.health.Do(req)
	if err != nil {
		return sig, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&sig); err != nil {
		return sig, err
	}
	return sig, nil
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/proxy/metrics.prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		p.reg.WritePrometheus(w)
		return
	}
	if r.Method == http.MethodGet && r.URL.Path == "/proxy/health" {
		p.handleHealth(w, r)
		return
	}
	key := SessionKey(r)
	if key == "" {
		http.Error(w, "session_id query parameter or X-Session-Id header required", http.StatusBadRequest)
		return
	}
	p.mu.RLock()
	name, ok := p.ring.Node(key)
	var b *backend
	if ok {
		b = p.backends[name]
	}
	p.mu.RUnlock()
	if b == nil {
		http.Error(w, "no backends available", http.StatusServiceUnavailable)
		return
	}

	// Stamp (or continue) the trace before forwarding so the backend span
	// links to this hop, and surface the id to the caller even on failure.
	traceID := obs.PropagateTrace(r.Header)
	w.Header().Set(obs.RequestIDHeader, traceID)

	slot := &proxyErr{}
	req := r.WithContext(context.WithValue(r.Context(), proxyErrKey{}, slot))
	b.requests.Inc()
	b.rp.ServeHTTP(w, req)
	if slot.err == nil {
		return
	}
	if retryable(r, slot.err) {
		b.retries.Inc()
		slot.err = nil
		b.rp.ServeHTTP(w, req)
		if slot.err == nil {
			return
		}
	}
	b.errors.Inc()
	http.Error(w, "upstream error: "+slot.err.Error(), http.StatusBadGateway)
}
