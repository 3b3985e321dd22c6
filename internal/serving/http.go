package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"serenade/internal/index"
	"serenade/internal/obs"
	"serenade/internal/sessions"
)

// IdempotencyKeyHeader names the header carrying a client-chosen key that
// identifies one logical recommendation request across retries. The server
// retains the response for each keyed request (Config.IdempotencyTTL) and
// replays it for a duplicate — the same key on the same session, item and
// consent flag — instead of appending the click to the session again.
const IdempotencyKeyHeader = "X-Idempotency-Key"

// IdempotencyReplayHeader is set to "true" on responses served from the
// idempotency table rather than freshly computed.
const IdempotencyReplayHeader = "X-Idempotency-Replay"

// Handler exposes the server as the REST application of §4.2:
//
//	POST /v1/recommend            body: {"session_id","item_id","consent"}
//	GET  /v1/recommend?session_id=&item_id=&consent=   (frontend beacon form)
//	GET  /v1/session/{id}         debug view of stored session state
//	GET  /healthz                 liveness probe for the orchestrator
//	GET  /metrics                 JSON counters
//	GET  /metrics.prom            Prometheus text exposition
//	GET  /debug/traces            recent request traces with stage timings
//	GET  /debug/slo               multi-window SLO burn rates (JSON)
//	GET  /debug/health            overload telemetry snapshot (JSON)
//	POST /track                   click/conversion feedback attribution
//	GET  /debug/quality           online quality windows + drift (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/recommend", s.handleRecommendPost)
	mux.HandleFunc("GET /v1/recommend", s.handleRecommendGet)
	mux.HandleFunc("POST /track", s.handleTrack)
	mux.HandleFunc("GET /debug/quality", s.handleQuality)
	mux.HandleFunc("GET /v1/session/{id}", s.handleSession)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics.prom", s.handlePromMetrics)
	mux.Handle("GET /debug/traces", s.tracer.Handler())
	mux.Handle("GET /debug/slo", s.slo.Handler())
	mux.HandleFunc("GET /debug/health", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/trending", s.handleTrending)
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	return mux
}

// handleTrending serves the companion "new and trending" slot.
//
//	GET /v1/trending?n=10            most popular right now
//	GET /v1/trending?n=10&new=24h    trending among recently first-seen items
func (s *Server) handleTrending(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Trending == nil {
		writeError(w, http.StatusNotFound, "trending is not enabled on this server")
		return
	}
	q := r.URL.Query()
	n := 21
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "invalid n")
			return
		}
		n = v
	}
	var items any
	if raw := q.Get("new"); raw != "" {
		maxAge, err := time.ParseDuration(raw)
		if err != nil || maxAge <= 0 {
			writeError(w, http.StatusBadRequest, "invalid new= duration")
			return
		}
		items = s.cfg.Trending.TopNew(n, maxAge)
	} else {
		items = s.cfg.Trending.Top(n)
	}
	writeJSON(w, http.StatusOK, map[string]any{"items": items})
}

// handleExplain answers "why would item X be recommended to this session?"
// for debugging and merchandising reviews.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := q.Get("session_id")
	if key == "" {
		writeError(w, http.StatusBadRequest, "session_id is required")
		return
	}
	item, err := strconv.ParseUint(q.Get("item_id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid item_id")
		return
	}
	ex, ok := s.Explain(key, sessions.ItemID(item))
	if !ok {
		writeError(w, http.StatusNotFound, "no score attribution for this session/item")
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// handleReload loads a new index file and swaps it in atomically — the
// endpoint the daily offline job calls after shipping a fresh build.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path string `json:"path"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || req.Path == "" {
		writeError(w, http.StatusBadRequest, "body must be {\"path\": \"<index file>\"}")
		return
	}
	idx, err := index.LoadFile(req.Path)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "loading index: "+err.Error())
		return
	}
	if err := s.SwapIndex(idx); err != nil {
		idx.Close() // release the fresh mapping; nothing serves from it
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions": idx.NumSessions(),
		"items":    idx.NumItems(),
	})
}

// handleTrack ingests click/conversion feedback and attributes it back to
// the exposure its recommendation id names. The whole path — body read,
// decode, encode — runs on pooled scratch buffers.
func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	if s.quality == nil {
		writeError(w, http.StatusNotFound, "quality telemetry is not enabled on this server")
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return
	}
	var req TrackRequest
	if err := DecodeTrackRequest(&sc.dec, body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if req.Event != "" && req.Event != "click" && req.Event != "conversion" {
		writeError(w, http.StatusBadRequest, "event must be \"click\" or \"conversion\"")
		return
	}
	resp, _ := s.Track(req)
	// Trailing newline matches the json.Encoder framing this endpoint has
	// always used.
	sc.enc = append(EncodeTrackResponse(sc.enc[:0], &resp), '\n')
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(http.StatusOK)
	w.Write(sc.enc)
}

// handleQuality serves the online quality snapshot.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if s.quality == nil {
		writeError(w, http.StatusNotFound, "quality telemetry is not enabled on this server")
		return
	}
	s.quality.Handler().ServeHTTP(w, r)
}

func (s *Server) handleRecommendPost(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return
	}
	var req Request
	if err := DecodeRequest(&sc.dec, body, &req); err != nil {
		s.countBadRequest()
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	s.serveRecommend(w, r, req, sc)
}

func (s *Server) handleRecommendGet(w http.ResponseWriter, r *http.Request) {
	var itemStr, sessionKey string
	consent := true
	var haveItem, haveSession, haveConsent bool
	// Hand-rolled query scan: url.Values would allocate a map plus a value
	// slice per key on every beacon request. Unescaping only happens when a
	// value actually contains an escape.
	for q := r.URL.RawQuery; q != ""; {
		var kv string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			kv, q = q[:i], q[i+1:]
		} else {
			kv, q = q, ""
		}
		if kv == "" || strings.Contains(kv, ";") {
			continue // net/url also drops semicolon-separated settings
		}
		k, v, _ := strings.Cut(kv, "=")
		k, ok := queryUnescape(k)
		if !ok {
			continue
		}
		v, ok = queryUnescape(v)
		if !ok {
			continue
		}
		switch k {
		case "item_id":
			if !haveItem {
				itemStr, haveItem = v, true
			}
		case "session_id":
			if !haveSession {
				sessionKey, haveSession = v, true
			}
		case "consent":
			if !haveConsent {
				consent, haveConsent = v != "false", true
			}
		}
	}
	item, err := strconv.ParseUint(itemStr, 10, 32)
	if err != nil {
		s.countBadRequest()
		writeError(w, http.StatusBadRequest, "invalid item_id "+strconv.Quote(itemStr))
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	s.serveRecommend(w, r, Request{
		SessionKey: sessionKey,
		Item:       sessions.ItemID(item),
		Consent:    consent,
	}, sc)
}

// queryUnescape decodes one query component, returning it unchanged (and
// allocation-free) when it contains no escapes.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// readBody reads the request body into the scratch. On failure it answers
// the request itself — 413 for a body over the size bound, 400 for any other
// read error, both counted as bad requests — and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *reqScratch) ([]byte, bool) {
	body, err := readAllInto(sc.body, r.Body)
	sc.body = body
	if err == nil {
		return body, true
	}
	status := http.StatusBadRequest
	if errors.Is(err, errBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.countBadRequest()
	writeError(w, status, "invalid request body: "+err.Error())
	return nil, false
}

func (s *Server) countBadRequest() {
	s.errors.Inc()
	s.errInput.Inc()
}

// serveRecommend is the traced HTTP entry point: it continues a propagated
// trace (Traceparent header) or starts a fresh one, echoes the request id in
// X-Request-Id, and attributes response serialisation to the encode stage.
// The caller owns sc and releases it after serveRecommend returns, which is
// after the response bytes have been written.
func (s *Server) serveRecommend(w http.ResponseWriter, r *http.Request, req Request, sc *reqScratch) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	sp := s.tracer.StartRemote("recommend", r.Header.Get(obs.TraceparentHeader))
	// The caller's own request id wins when supplied; either way the id on
	// the span is what the exposure record and the slow-query log carry, so
	// an attributed bad recommendation joins back to its trace.
	sp.RequestID = r.Header.Get(obs.RequestIDHeader)
	if sp.RequestID == "" {
		sp.RequestID = sp.TraceID
	}
	w.Header().Set(obs.RequestIDHeader, sp.RequestID)
	if req.SessionKey == "" {
		s.countBadRequest()
		sp.SetError("bad_request")
		writeError(w, http.StatusBadRequest, "session_id is required")
		s.tracer.Finish(sp)
		return
	}
	// Duplicate delivery of a request that already landed (client retry
	// after a lost response): replay the stored response; the click must
	// not be appended to the evolving session a second time.
	var id []byte
	if key := r.Header.Get(IdempotencyKeyHeader); key != "" && s.replay != nil {
		id = appendReplayID(sc.replayID[:0], &req, key)
		sc.replayID = id
		if body, ok := s.replay.lookup(id, sc.enc[:0]); ok {
			sc.enc = body
			s.idemReplays.Inc()
			h := w.Header()
			h[IdempotencyReplayHeader] = replayTrue
			h["Content-Type"] = contentTypeJSON
			w.WriteHeader(http.StatusOK)
			w.Write(body)
			sp.Cut(obs.StageEncode)
			s.observeSpan(sp, nil)
			return
		}
	}
	resp, err := s.recommend(req, sp, sc)
	if err != nil {
		s.observeSpan(sp, err)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sc.enc = EncodeResponse(sc.enc[:0], &resp)
	// Record before responding, so a retry racing the response sees it
	// (the table copies the body out of the scratch buffer). The insert is
	// billed to store, like the lookup that opened the request.
	if id != nil {
		sp.Cut(obs.StageEncode)
		s.replay.insert(id, sc.enc)
		sp.Cut(obs.StageStore)
	}
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(http.StatusOK)
	w.Write(sc.enc)
	sp.Cut(obs.StageEncode)
	s.observeSpan(sp, nil)
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	state, ok := s.SessionState(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no session state for "+strconv.Quote(key))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"session_id": key, "items": state})
}

// handlePromMetrics exposes the full registry in the Prometheus text
// exposition format: cumulative `le`-bucket latency histograms (request
// total and per stage) derived from the HDR buckets, every counter and
// gauge, and Go runtime stats — the scrape target from which the paper's
// Figure 3(b)/3(c) curves can be reproduced.
func (s *Server) handlePromMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// contentTypeJSON and replayTrue are shared immutable header values: direct
// map assignment of a package-level slice skips the per-request []string
// allocation http.Header.Set would make. Nothing may ever mutate them.
var (
	contentTypeJSON = []string{"application/json"}
	replayTrue      = []string{"true"}
)

// jsonEnc pairs a buffer with an encoder bound to it, so writeJSON reuses
// both instead of constructing a fresh json.Encoder per call.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// writeJSON serialises v through a pooled encoder. Buffering before the
// first write also means an encode failure surfaces as a clean 500 instead
// of a torn 200 body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := jsonEncPool.Get().(*jsonEnc)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		jsonEncPool.Put(e)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	w.Write(e.buf.Bytes())
	jsonEncPool.Put(e)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
