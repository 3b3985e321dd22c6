package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"serenade/internal/core"
	"serenade/internal/fastjson"
	"serenade/internal/index"
	"serenade/internal/kvstore"
	"serenade/internal/serving"
	"serenade/internal/sessions"
)

// span is one timed call. Spans of one request share Req; Parent is the id
// of the span that caused this one, -1 for the root of a request in a pass.
type span struct {
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(pass, name string, req, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Pass: pass, Name: name, Req: req, ID: id, Parent: parent})
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMeans reduces the spans of one pass, requests from skip on, to mean
// microseconds: perCall[name] over the spans of that name, perReq[name] over
// the requests.
func spanMeans(spans []span, pass string, skip, reqs int) (perCall, perReq map[string]float64) {
	sum, calls := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		if s.Pass != pass || s.Req < skip {
			continue
		}
		sum[s.Name] += float64(s.End - s.Start)
		calls[s.Name]++
	}
	perCall, perReq = map[string]float64{}, map[string]float64{}
	for name := range sum {
		perCall[name] = sum[name] / calls[name] / 1e3
		perReq[name] = sum[name] / float64(reqs-skip) / 1e3
	}
	return
}

// Pass and span names. P1 contains P2 contains P3 contains the kvstore and
// core calls of P4; a layer's self time is its pass minus the pass inside.
const (
	passSocket  = "P1"
	passHandler = "P2"
	passServer  = "P3"
	passLayers  = "P4"
)

// traceSample is how many requests each traced pass replays, and
// tracePassCap how long the first pass may take before the sample is cut;
// the later passes then replay the same, shorter sample.
const (
	traceSample  = 1200
	tracePassCap = 2 * time.Second
)

// storedSessionCap is serving's bound on the clicks kept per session.
const storedSessionCap = 50

// traceStats are the figures only the traced passes give.
type traceStats struct {
	requests      int
	untracedP50Us float64            // socket, concurrency 1, no spans
	tracedP50Us   float64            // the same requests with spans
	pass          map[string]float64 // mean µs of each pass's root span
	layerCall     map[string]float64 // P4: mean µs per call
	layerReq      map[string]float64 // P4: mean µs per request
	layersSelfUs  float64            // P4 root minus its children: the harness's own glue
	handlerAllocs float64
	respBytes     float64
	neighborsMean float64
	indexLoadS    float64
	indexHeapMB   float64
}

// runTracedPasses replays the first requests of the stream four times at
// concurrency 1 with identical inputs and fresh state: through the socket,
// through the HTTP handler in process, through Server.Recommend, and through
// the layer calls themselves. Spans are recorded here, around calls into
// public functions; the program is not instrumented.
func runTracedPasses(ctx context.Context, env *environment, indexPath string, stream []request, tr *tracer) (traceStats, error) {
	st := traceStats{}
	if len(stream) > traceSample {
		stream = stream[:traceSample]
	}
	key := func(r request) string { return sessionKey("t", 0, r.Session) }

	// Socket passes, each against a fresh child.
	socketPass := func(name string, traced bool) (durs []int64, err error) {
		srv, _, err := startServer(ctx, env.bin, env.childArgs(indexPath), env.serverProcs, env.outPath("server-"+name+".stderr.log"))
		if err != nil {
			return nil, err
		}
		defer func() {
			if stopErr := srv.stop(); err == nil {
				err = stopErr
			}
		}()
		cl, tp, err := newClient(srv.base, 1, clientTimeout)
		if err != nil {
			return nil, err
		}
		defer tp.CloseIdleConnections()
		start := time.Now()
		for i, r := range stream {
			if !traced && time.Since(start) > tracePassCap {
				break
			}
			t0 := time.Now()
			id := -1
			if traced {
				id = tr.begin(passSocket, "client.Recommend", i, -1)
			}
			_, err := cl.Recommend(ctx, key(r), r.Item, r.Consent)
			if traced {
				tr.end(id)
			}
			durs = append(durs, int64(time.Since(t0)))
			if err != nil {
				return nil, fmt.Errorf("traced pass %s, request %d: %w", name, i, err)
			}
		}
		return durs, nil
	}
	p0, err := socketPass("untraced", false)
	if err != nil {
		return st, err
	}
	stream = stream[:len(p0)]
	st.requests = len(stream)
	skip := st.requests / 10
	p1, err := socketPass("traced", true)
	if err != nil {
		return st, err
	}
	st.untracedP50Us = medianUs(p0[skip:])
	st.tracedP50Us = medianUs(p1[skip:])

	// P2: the HTTP handler in process. Requests are built beforehand so the
	// allocation count is the handler's.
	mirror, err := newMirror(indexPath)
	if err != nil {
		return st, err
	}
	handler := mirror.Handler()
	reqs := make([]*http.Request, len(stream))
	for i, r := range stream {
		body := serving.EncodeRequest(nil, &serving.Request{SessionKey: key(r), Item: r.Item, Consent: r.Consent})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/recommend", bytes.NewReader(body))
		if err != nil {
			mirror.Close()
			return st, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Session-Id", key(r))
		req.Header.Set(serving.IdempotencyKeyHeader, "trace-"+strconv.Itoa(i))
		reqs[i] = req
	}
	sink := &responseSink{header: http.Header{}}
	var m0, m1 runtime.MemStats
	var bytesOut int
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		sink.reset()
		id := tr.begin(passHandler, "serving.ServeHTTP", i, -1)
		handler.ServeHTTP(sink, reqs[i])
		tr.end(id)
		if sink.status != http.StatusOK {
			mirror.Close()
			return st, fmt.Errorf("traced pass P2, request %d: status %d", i, sink.status)
		}
		bytesOut += sink.n
	}
	runtime.ReadMemStats(&m1)
	mirror.Close()
	st.handlerAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
	st.respBytes = float64(bytesOut) / float64(len(reqs))

	// P3: Server.Recommend on a fresh server.
	mirror, err = newMirror(indexPath)
	if err != nil {
		return st, err
	}
	answers := make([]serving.Response, len(stream))
	for i, r := range stream {
		id := tr.begin(passServer, "serving.Recommend", i, -1)
		answers[i], err = mirror.Recommend(serving.Request{SessionKey: key(r), Item: r.Item, Consent: r.Consent})
		tr.end(id)
		if err != nil {
			mirror.Close()
			return st, err
		}
	}
	mirror.Close()

	// P4: the layer calls, on a store opened as the server opens its own and
	// a recommender over the same index file.
	t0 := time.Now()
	idx, err := index.LoadFile(indexPath)
	if err != nil {
		return st, err
	}
	st.indexLoadS = time.Since(t0).Seconds()
	defer idx.Close()
	heap, _ := idx.MemoryBreakdown()
	st.indexHeapMB = float64(heap) / (1 << 20)
	rec, err := core.NewRecommender(idx, core.Params{M: paramM, K: paramK})
	if err != nil {
		return st, err
	}
	store, err := kvstore.Open(kvstore.Options{TTL: serving.DefaultSessionTTL})
	if err != nil {
		return st, err
	}
	defer store.Close()
	var (
		dec      fastjson.Dec
		raw, enc []byte
		session  []sessions.ItemID
		out      []byte
		nbrs     int
	)
	slot := 2*serving.DefaultRecommendations + 1
	for i := range stream {
		body := serving.EncodeRequest(nil, &serving.Request{SessionKey: key(stream[i]), Item: stream[i].Item, Consent: stream[i].Consent})
		root := tr.begin(passLayers, "layers", i, -1)

		id := tr.begin(passLayers, "fastjson.decode", i, root)
		var req serving.Request
		err := serving.DecodeRequest(&dec, body, &req)
		tr.end(id)
		if err != nil {
			return st, err
		}

		session = session[:0]
		if req.Consent {
			id = tr.begin(passLayers, "kvstore.get", i, root)
			var ok bool
			raw, ok = store.GetAppend(req.SessionKey, raw[:0])
			tr.end(id)
			if ok {
				for b := raw; len(b) > 0; {
					v, n := binary.Uvarint(b)
					session = append(session, sessions.ItemID(v))
					b = b[n:]
				}
			}
			session = append(session, req.Item)
			if len(session) > storedSessionCap {
				session = session[len(session)-storedSessionCap:]
			}
			enc = enc[:0]
			for _, it := range session {
				enc = binary.AppendUvarint(enc, uint64(it))
			}
			id = tr.begin(passLayers, "kvstore.put", i, root)
			err = store.Put(req.SessionKey, enc)
			tr.end(id)
		} else {
			id = tr.begin(passLayers, "kvstore.delete", i, root)
			err = store.Delete(req.SessionKey)
			tr.end(id)
			session = append(session, req.Item)
		}
		if err != nil {
			return st, err
		}

		id = tr.begin(passLayers, "core.candidates", i, root)
		neighbors := rec.NeighborSessions(session)
		tr.end(id)
		nbrs += len(neighbors)
		id = tr.begin(passLayers, "core.score", i, root)
		rec.ScoreNeighbors(neighbors, slot)
		tr.end(id)

		// The business rules sit between scoring and encoding inside
		// serving; the response they produce is taken from P3.
		id = tr.begin(passLayers, "fastjson.encode", i, root)
		out = serving.EncodeResponse(out[:0], &answers[i])
		tr.end(id)
		tr.end(root)
	}
	st.neighborsMean = float64(nbrs) / float64(len(stream))

	st.pass = map[string]float64{}
	for pass, root := range map[string]string{passSocket: "client.Recommend", passHandler: "serving.ServeHTTP", passServer: "serving.Recommend"} {
		_, perReq := spanMeans(tr.spans, pass, skip, st.requests)
		st.pass[pass] = perReq[root]
	}
	st.layerCall, st.layerReq = spanMeans(tr.spans, passLayers, skip, st.requests)
	return st, nil
}

func medianUs(durs []int64) float64 {
	s := append([]int64(nil), durs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return float64(percentile(s, 0.5)) / 1e3
}

// responseSink is the http.ResponseWriter of the in-process handler pass.
type responseSink struct {
	header http.Header
	status int
	n      int
}

func (s *responseSink) reset() {
	clear(s.header)
	s.status, s.n = http.StatusOK, 0
}
func (s *responseSink) Header() http.Header         { return s.header }
func (s *responseSink) WriteHeader(status int)      { s.status = status }
func (s *responseSink) Write(b []byte) (int, error) { s.n += len(b); return len(b), nil }
