// Package client is the Go client for the Serenade recommendation REST API
// (see internal/serving for the server side). The shop frontend — or any
// service embedding recommendations — calls Recommend on every product
// detail page view; the client handles timeouts, retries on transient
// failures, and the session affinity header used by the sticky-session
// proxy.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"serenade/internal/core"
	"serenade/internal/fastjson"
	"serenade/internal/serving"
	"serenade/internal/sessions"
)

// clientBuf is the pooled per-call scratch: the request body encodes into
// enc, the response body reads into body, and dec is the reusable JSON
// scanner. A buffer is held for the whole of do — retries re-read the same
// encoded body — and recycled when the call returns.
type clientBuf struct {
	enc  []byte
	body []byte
	dec  fastjson.Dec
}

var bufPool = sync.Pool{New: func() any {
	return &clientBuf{enc: make([]byte, 0, 256), body: make([]byte, 0, 2048)}
}}

// Options configures a Client.
type Options struct {
	// BaseURL is the server or proxy address, e.g. "http://localhost:8080".
	BaseURL string
	// Timeout bounds each attempt; 0 means 50ms — the paper's SLA is
	// "respond in 50 ms or less", beyond which the frontend drops the slot.
	Timeout time.Duration
	// Retries is the number of additional attempts on transient errors
	// (network failures and 5xx); 0 means 1 retry. A client that can retry
	// stamps each Recommend call with an X-Idempotency-Key that all its
	// attempts repeat, so the server deduplicates a retry whose first
	// attempt actually landed. Set DisableRetries to turn retries off
	// entirely; such a client sends no key, having nothing to deduplicate.
	Retries int
	// DisableRetries makes every request single-attempt, overriding
	// Retries. (Retries cannot express this: its zero value means one
	// retry, and changing that would silently alter existing callers.)
	DisableRetries bool
	// HTTPClient overrides the transport (tests inject httptest clients).
	HTTPClient *http.Client
}

// Client calls the Serenade API. Safe for concurrent use.
type Client struct {
	base    *url.URL
	http    *http.Client
	retries int
}

// New validates the options and returns a client.
func New(opts Options) (*Client, error) {
	base, err := url.Parse(opts.BaseURL)
	if err != nil || base.Scheme == "" || base.Host == "" {
		return nil, fmt.Errorf("client: invalid base URL %q", opts.BaseURL)
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 50 * time.Millisecond
	}
	if opts.Retries <= 0 {
		opts.Retries = 1
	}
	if opts.DisableRetries {
		opts.Retries = 0
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	// The per-attempt timeout lives on the client copy so callers' shared
	// transports are not mutated.
	attempt := *hc
	attempt.Timeout = opts.Timeout
	return &Client{base: base, http: &attempt, retries: opts.Retries}, nil
}

// Recommend reports the user's interaction with item in session sessionKey
// and returns the next-item recommendations.
func (c *Client) Recommend(ctx context.Context, sessionKey string, item sessions.ItemID, consent bool) (serving.Response, error) {
	if sessionKey == "" {
		return serving.Response{}, fmt.Errorf("client: session key is required")
	}
	cb := bufPool.Get().(*clientBuf)
	defer bufPool.Put(cb)
	req := serving.Request{SessionKey: sessionKey, Item: item, Consent: consent}
	cb.enc = serving.EncodeRequest(cb.enc[:0], &req)
	var out serving.Response
	// One key per logical click: every retry of this call carries the same
	// key, so a retry whose first attempt actually landed is deduplicated
	// server-side instead of appending the click to the session twice.
	// Without retries there is no duplicate to suppress, so no key.
	var idemKey string
	if c.retries > 0 {
		idemKey = newIdempotencyKey()
	}
	err := c.do(ctx, http.MethodPost, "/v1/recommend", sessionKey, idemKey, cb, cb.enc,
		func(data []byte) error { return serving.DecodeResponse(&cb.dec, data, &out) })
	return out, err
}

// Track reports click/conversion feedback on a recommendation the user was
// shown, referencing the RecommendationID from the Recommend response so the
// server can attribute the event to the exposure. event is "click" or
// "conversion" (empty means click); sessionKey carries the affinity header
// so a sticky proxy routes the event to the replica that served the
// exposure. POSTing feedback is not idempotent-keyed: a duplicated click
// is deduplicated server-side by the per-exposure attribution state.
func (c *Client) Track(ctx context.Context, sessionKey string, recommendationID uint64, item sessions.ItemID, event string) (serving.TrackResponse, error) {
	cb := bufPool.Get().(*clientBuf)
	defer bufPool.Put(cb)
	req := serving.TrackRequest{RecommendationID: recommendationID, Item: item, Event: event}
	cb.enc = serving.EncodeTrackRequest(cb.enc[:0], &req)
	var out serving.TrackResponse
	err := c.do(ctx, http.MethodPost, "/track", sessionKey, "", cb, cb.enc,
		func(data []byte) error { return serving.DecodeTrackResponse(&cb.dec, data, &out) })
	return out, err
}

// Explain asks why item would be recommended to the session.
func (c *Client) Explain(ctx context.Context, sessionKey string, item sessions.ItemID) (core.Explanation, error) {
	var out core.Explanation
	path := "/v1/explain?session_id=" + url.QueryEscape(sessionKey) + "&item_id=" + strconv.FormatUint(uint64(item), 10)
	err := c.do(ctx, http.MethodGet, path, sessionKey, "", nil, nil,
		func(data []byte) error { return json.Unmarshal(data, &out) })
	return out, err
}

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (serving.Stats, error) {
	var out serving.Stats
	err := c.do(ctx, http.MethodGet, "/metrics", "", "", nil, nil,
		func(data []byte) error { return json.Unmarshal(data, &out) })
	return out, err
}

// Healthy reports whether the server answers its liveness probe.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := c.newRequest(ctx, http.MethodGet, "/healthz", "", "", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (c *Client) newRequest(ctx context.Context, method, path, sessionKey, idemKey string, body []byte) (*http.Request, error) {
	u, err := c.base.Parse(path)
	if err != nil {
		return nil, err
	}
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rdr)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sessionKey != "" {
		// Affinity header for proxies that cannot see the body.
		req.Header.Set("X-Session-Id", sessionKey)
	}
	if idemKey != "" {
		req.Header.Set(serving.IdempotencyKeyHeader, idemKey)
	}
	return req, nil
}

// apiError is a non-2xx response.
type apiError struct {
	Status  int
	Message string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// retryable reports whether the failure is worth another attempt.
func retryable(err error) bool {
	var ae *apiError
	if asAPIError(err, &ae) {
		return ae.Status >= 500
	}
	return true // transport errors
}

func asAPIError(err error, target **apiError) bool {
	ae, ok := err.(*apiError)
	if ok {
		*target = ae
	}
	return ok
}

// do runs one API call with retries. cb, when non-nil, provides the reusable
// response-read buffer (the request body, if any, is the caller's and must
// stay valid across attempts); decode is handed the complete response body.
func (c *Client) do(ctx context.Context, method, path, sessionKey, idemKey string, cb *clientBuf, body []byte, decode func([]byte) error) error {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * 2 * time.Millisecond):
			}
		}
		req, err := c.newRequest(ctx, method, path, sessionKey, idemKey, body)
		if err != nil {
			return err
		}
		// A context cancelled during the previous attempt (not just during
		// the backoff sleep) must stop here, before another transport call.
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
			resp.Body.Close()
			lastErr = &apiError{Status: resp.StatusCode, Message: string(bytes.TrimSpace(msg))}
			if !retryable(lastErr) {
				return lastErr
			}
			continue
		}
		var data []byte
		if cb != nil {
			cb.body, err = readAppend(cb.body[:0], resp.Body)
			data = cb.body
		} else {
			data, err = io.ReadAll(resp.Body)
		}
		resp.Body.Close()
		if err == nil {
			err = decode(data)
		}
		if err != nil {
			return fmt.Errorf("client: decoding response: %w", err)
		}
		return nil
	}
	return lastErr
}

// readAppend reads r to EOF into dst's backing array, growing only when the
// body exceeds the retained capacity.
func readAppend(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// idemSeq breaks ties in the fallback key path; see newIdempotencyKey.
var idemSeq atomic.Uint64

// newIdempotencyKey returns a key unique to one logical request. Random
// keys need no coordination; if the system entropy source fails the key
// falls back to wall-clock nanoseconds plus a process-wide counter, which
// is still unique within this process — the only scope retries come from.
func newIdempotencyKey() string {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		binary.BigEndian.PutUint64(buf[:8], uint64(time.Now().UnixNano()))
		binary.BigEndian.PutUint64(buf[8:], idemSeq.Add(1))
	}
	var dst [32]byte
	hex.Encode(dst[:], buf[:])
	return string(dst[:])
}

// StatusCode extracts the HTTP status from an error returned by this
// package, or 0 when the error was not an API response.
func StatusCode(err error) int {
	var ae *apiError
	if asAPIError(err, &ae) {
		return ae.Status
	}
	return 0
}
