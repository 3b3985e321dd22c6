package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"serenade/internal/metrics"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histogramSource is anything exposable as cumulative le buckets; both
// metrics.Histogram and metrics.StripedHistogram satisfy it.
type histogramSource interface {
	Distribution() metrics.Distribution
}

// series is one exposition line: a family member with a fixed label set.
type series struct {
	labels  string // `{k="v",...}` suffix, or ""
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    histogramSource
}

// family is one metric name with HELP/TYPE and its label-distinguished
// series.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []*series
}

// Registry is a process-wide set of named metrics with Prometheus text
// exposition. Registration is idempotent: asking for an existing
// name+labels returns the existing instrument, so restarted components
// (e.g. a re-added proxy backend) keep their counts. All methods are safe
// for concurrent use; instrument updates are lock-free.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string

	// DefaultBuckets are the `le` boundaries (seconds) used for histogram
	// exposition; the defaults bracket the paper's <7ms p90 SLO.
	buckets []float64
}

// DefaultLatencyBuckets are the exposition boundaries in seconds: dense
// below 10ms where the SLO lives, sparse above.
var DefaultLatencyBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.0075, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		buckets:  DefaultLatencyBuckets,
	}
}

// labelSuffix renders pairwise labels ("k","v",...) as a canonical suffix.
func labelSuffix(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getOrAdd finds or creates the family and the series for a label set and
// runs set on the series under the registry lock, so a registration never
// races a concurrent scrape.
func (r *Registry) getOrAdd(name, help, typ string, labels []string, set func(*series)) {
	suffix := labelSuffix(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	for _, s := range f.series {
		if s.labels == suffix {
			set(s)
			return
		}
	}
	s := &series{labels: suffix}
	f.series = append(f.series, s)
	set(s)
}

// Counter returns the counter for name+labels, creating it if needed.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	var c *Counter
	r.getOrAdd(name, help, "counter", labels, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
		c = s.counter
	})
	return c
}

// Gauge returns the gauge for name+labels, creating it if needed.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	var g *Gauge
	r.getOrAdd(name, help, "gauge", labels, func(s *series) {
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
		g = s.gauge
	})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.getOrAdd(name, help, "gauge", labels, func(s *series) { s.fn = fn })
}

// CounterFunc registers a counter whose value is read at scrape time from
// an external monotonic source (e.g. a kvstore's internal op counters).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.getOrAdd(name, help, "counter", labels, func(s *series) { s.fn = fn })
}

// Histogram registers a latency histogram for cumulative-bucket exposition.
// The source's nanosecond HDR buckets are folded into the registry's
// `le`-second boundaries at scrape time.
func (r *Registry) Histogram(name, help string, h histogramSource, labels ...string) {
	r.getOrAdd(name, help, "histogram", labels, func(s *series) { s.hist = h })
}

// WritePrometheus emits every registered metric in the Prometheus text
// exposition format (version 0.0.4), families in registration order,
// series sorted within a family.
func (r *Registry) WritePrometheus(w io.Writer) {
	// Copy every family and series under the read lock: registration
	// appends series and sets their instruments under the write lock.
	r.mu.RLock()
	fams := make([]family, len(r.order))
	for i, name := range r.order {
		f := r.families[name]
		fams[i] = family{name: f.name, help: f.help, typ: f.typ, series: make([]*series, len(f.series))}
		for j, s := range f.series {
			cp := *s
			fams[i].series[j] = &cp
		}
	}
	r.mu.RUnlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			switch {
			case s.hist != nil:
				r.writeHistogram(w, f.name, s)
			case s.fn != nil:
				fmt.Fprintf(w, "%s%s %g\n", f.name, s.labels, s.fn())
			case s.counter != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.gauge != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
			}
		}
	}
}

// writeHistogram folds the HDR nanosecond buckets into cumulative
// second-denominated `le` buckets.
func (r *Registry) writeHistogram(w io.Writer, name string, s *series) {
	d := s.hist.Distribution()
	for _, le := range r.buckets {
		n := d.CumulativeLE(uint64(le * 1e9))
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(s.labels, fmt.Sprintf(`le="%g"`, le)), n)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(s.labels, `le="+Inf"`), d.Count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, s.labels, float64(d.Sum)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, d.Count)
}

// joinLabels merges an extra label into an existing `{...}` suffix.
func joinLabels(suffix, extra string) string {
	if suffix == "" {
		return "{" + extra + "}"
	}
	return suffix[:len(suffix)-1] + "," + extra + "}"
}
