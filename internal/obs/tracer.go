package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// TracerOptions parameterise a Tracer. The zero value is usable: every
// request sampled into a 256-slot ring, no slow-query log.
type TracerOptions struct {
	// RingSize is the trace ring capacity; 0 means 256, negative disables
	// the ring.
	RingSize int
	// SampleEvery keeps 1 in N finished spans in the ring (1 = all). Slow
	// spans bypass sampling — a tail-latency request is always kept.
	SampleEvery int
	// SlowLog, when non-nil, receives every span slower than its threshold.
	SlowLog *SlowLog
	// TailKeep is the slowest-N retention tier's capacity per window:
	// the N slowest spans of each window are always retained, immune to
	// the eviction-by-fast-traffic that loses outliers from the uniform
	// ring. 0 means 32, negative disables the tier.
	TailKeep int
	// TailWindow is the slowest-N rotation period; 0 means one minute. A
	// retained span survives between one and two windows.
	TailWindow time.Duration
	// ErrorKeep is the error-trace tier's ring size — every span finishing
	// with an error class is retained, oldest overwritten. 0 means 64,
	// negative disables the tier.
	ErrorKeep int
}

// Tracer hands out spans, samples finished ones into a fixed ring of recent
// traces, and feeds the slow-query log. All methods are safe for concurrent
// use; span structs are pooled across requests.
type Tracer struct {
	opts TracerOptions

	pool     sync.Pool
	seq      atomic.Uint64 // finished spans, for sampling
	sampled  atomic.Uint64
	finished atomic.Uint64

	mu   sync.Mutex
	ring []Span
	next int
	n    int // live entries in ring

	tail *tailRing
}

// NewTracer creates a tracer.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.RingSize == 0 {
		opts.RingSize = 256
	}
	if opts.RingSize < 0 {
		opts.RingSize = 0
	}
	if opts.SampleEvery < 1 {
		opts.SampleEvery = 1
	}
	if opts.TailKeep == 0 {
		opts.TailKeep = 32
	}
	if opts.TailKeep < 0 {
		opts.TailKeep = 0
	}
	if opts.TailWindow <= 0 {
		opts.TailWindow = time.Minute
	}
	if opts.ErrorKeep == 0 {
		opts.ErrorKeep = 64
	}
	if opts.ErrorKeep < 0 {
		opts.ErrorKeep = 0
	}
	t := &Tracer{opts: opts, ring: make([]Span, opts.RingSize)}
	if opts.TailKeep > 0 || opts.ErrorKeep > 0 {
		t.tail = newTailRing(opts.TailKeep, opts.TailWindow, opts.ErrorKeep)
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Start begins a span for a locally originated request.
func (t *Tracer) Start(op string) *Span {
	sp := t.pool.Get().(*Span)
	now := nowMono()
	sp.TraceID, sp.SpanID = NewTraceAndSpanID()
	sp.Op = op
	sp.Start = now
	sp.cursor = now
	return sp
}

// StartRemote begins a span continuing a propagated trace. A missing or
// malformed traceparent degrades to a fresh local trace.
func (t *Tracer) StartRemote(op, traceparent string) *Span {
	sp := t.Start(op)
	if tid, parent, ok := ParseTraceparent(traceparent); ok {
		sp.TraceID = tid
		sp.ParentID = parent
	}
	return sp
}

// Finish ends the span, samples it into the ring, feeds the slow-query log,
// and recycles the struct. The caller must not use sp afterwards.
func (t *Tracer) Finish(sp *Span) {
	sp.End()
	t.finished.Add(1)
	slow := t.opts.SlowLog != nil && t.opts.SlowLog.IsSlow(sp.Total)
	if len(t.ring) > 0 {
		n := t.seq.Add(1)
		if slow || t.opts.SampleEvery == 1 || n%uint64(t.opts.SampleEvery) == 0 {
			t.sampled.Add(1)
			t.mu.Lock()
			t.ring[t.next] = *sp
			t.next = (t.next + 1) % len(t.ring)
			if t.n < len(t.ring) {
				t.n++
			}
			t.mu.Unlock()
		}
	}
	t.tail.offer(sp)
	if slow {
		t.opts.SlowLog.Log(sp)
	}
	sp.reset()
	t.pool.Put(sp)
}

// Slowest returns the tail-retention tier: the slowest spans of the current
// and previous windows, slowest first. Unlike Recent, an outlier here cannot
// be evicted by the fast traffic that follows it.
func (t *Tracer) Slowest() []Span { return t.tail.slowest() }

// ErrorTraces returns the retained error spans, newest first.
func (t *Tracer) ErrorTraces() []Span { return t.tail.errors() }

// Recent returns the sampled traces, newest first.
func (t *Tracer) Recent() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	for i := 0; i < t.n; i++ {
		// next-1 is the newest slot; walk backwards.
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

// FlushSlowLog emits the slow-query log's final summary, if one is wired.
func (t *Tracer) FlushSlowLog() {
	if t.opts.SlowLog != nil {
		t.opts.SlowLog.Flush()
	}
}

// traceView is the JSON shape of one trace at /debug/traces. Durations are
// nanoseconds; stages with zero time are omitted.
type traceView struct {
	TraceID   string           `json:"trace_id"`
	SpanID    string           `json:"span_id"`
	ParentID  string           `json:"parent_id,omitempty"`
	RequestID string           `json:"request_id,omitempty"`
	Op        string           `json:"op"`
	Start     time.Time        `json:"start"`
	TotalNS   int64            `json:"total_ns"`
	Total     string           `json:"total"`
	Stages    map[string]int64 `json:"stages_ns"`
	Error     string           `json:"error,omitempty"`
}

func viewOf(sp Span) traceView {
	v := traceView{
		TraceID:   sp.TraceID,
		SpanID:    sp.SpanID,
		ParentID:  sp.ParentID,
		RequestID: sp.RequestID,
		Op:        sp.Op,
		Start:     sp.Start,
		TotalNS:   int64(sp.Total),
		Total:     sp.Total.String(),
		Stages:    make(map[string]int64, len(sp.Stages)),
		Error:     sp.Error,
	}
	for i, d := range sp.Stages {
		if d > 0 {
			v.Stages[Stage(i).String()] = int64(d)
		}
	}
	return v
}

// Handler serves the retained traces as JSON:
//
//	GET /debug/traces?n=50        at most n traces, newest first (default all)
//	GET /debug/traces?slowest=1   the slowest-N retention tier, slowest first
//	GET /debug/traces?errors=1    the error-trace tier, newest first
//	GET /debug/traces?min_ms=20   only traces at least that slow
//	GET /debug/traces?endpoint=recommend   only traces for that op
//
// The view selectors pick the source tier; the filters then narrow it.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var spans []Span
		view := "sampled"
		switch {
		case q.Get("errors") == "1":
			spans = t.ErrorTraces()
			view = "errors"
		case q.Get("slowest") == "1":
			spans = t.Slowest()
			view = "slowest"
		default:
			spans = t.Recent()
		}
		if raw := q.Get("min_ms"); raw != "" {
			if ms, err := parsePositive(raw); err == nil {
				min := time.Duration(ms) * time.Millisecond
				kept := spans[:0]
				for _, sp := range spans {
					if sp.Total >= min {
						kept = append(kept, sp)
					}
				}
				spans = kept
			}
		}
		if op := q.Get("endpoint"); op != "" {
			kept := spans[:0]
			for _, sp := range spans {
				if sp.Op == op {
					kept = append(kept, sp)
				}
			}
			spans = kept
		}
		if raw := q.Get("n"); raw != "" {
			if n, err := parsePositive(raw); err == nil && n < len(spans) {
				spans = spans[:n]
			}
		}
		views := make([]traceView, len(spans))
		for i, sp := range spans {
			views[i] = viewOf(sp)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"finished": t.finished.Load(),
			"sampled":  t.sampled.Load(),
			"view":     view,
			"traces":   views,
		})
	})
}

func parsePositive(s string) (int, error) {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' || n > 1<<20 {
			return 0, errBadNumber
		}
		n = n*10 + int(s[i]-'0')
	}
	if len(s) == 0 || n == 0 {
		return 0, errBadNumber
	}
	return n, nil
}

var errBadNumber = &badNumberError{}

type badNumberError struct{}

func (*badNumberError) Error() string { return "obs: bad number" }
