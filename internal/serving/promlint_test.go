package serving

import (
	"bufio"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelPairRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// parseExposition lints the raw scrape while parsing: metric and label
// naming, TYPE lines present and valid, samples only under a declared family.
func parseExposition(t *testing.T, raw string) []promSample {
	t.Helper()
	types := map[string]string{} // family -> counter|gauge|histogram
	var samples []promSample
	seen := map[string]bool{} // duplicate (name + labelset) detection
	sc := bufio.NewScanner(strings.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) || parts[1] == "" {
				t.Errorf("line %d: malformed HELP: %q", lineNo, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Errorf("line %d: malformed TYPE: %q", lineNo, line)
				continue
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: invalid TYPE %q", lineNo, parts[1])
			}
			if _, dup := types[parts[0]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", lineNo, parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparsable sample: %q", lineNo, line)
			continue
		}
		name := m[1]
		labels := map[string]string{}
		if m[2] != "" {
			for _, pair := range splitLabelPairs(m[2][1 : len(m[2])-1]) {
				lm := labelPairRe.FindStringSubmatch(pair)
				if lm == nil || !labelNameRe.MatchString(lm[1]) {
					t.Errorf("line %d: malformed label pair %q", lineNo, pair)
					continue
				}
				if _, dup := labels[lm[1]]; dup {
					t.Errorf("line %d: duplicate label %q", lineNo, lm[1])
				}
				labels[lm[1]] = lm[2]
			}
		}
		val, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			if m[3] == "+Inf" {
				val = math.Inf(1)
			} else {
				t.Errorf("line %d: bad value %q", lineNo, m[3])
				continue
			}
		}
		// Every sample must belong to a declared family; histogram series
		// use the family name plus _bucket/_sum/_count.
		family := name
		if _, ok := types[family]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, found := strings.CutSuffix(name, suffix); found {
					if typ, ok := types[base]; ok && typ == "histogram" {
						family = base
					}
					break
				}
			}
		}
		typ, declared := types[family]
		if !declared {
			t.Errorf("line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		if declared && typ == "histogram" && family == name {
			t.Errorf("line %d: bare sample %s for histogram family", lineNo, name)
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		if seen[key] {
			t.Errorf("line %d: duplicate series %q", lineNo, key)
		}
		seen[key] = true
		samples = append(samples, promSample{name: name, labels: labels, value: val, line: lineNo})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quoted values.
func splitLabelPairs(s string) []string {
	var out []string
	start, inQuote, escaped := 0, false, false
	for i := 0; i < len(s); i++ {
		switch {
		case escaped:
			escaped = false
		case s[i] == '\\':
			escaped = true
		case s[i] == '"':
			inQuote = !inQuote
		case s[i] == ',' && !inQuote:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestPromExpositionConformance is the promlint-style satellite: scrape the
// full /metrics.prom of a server with every subsystem enabled (slow log,
// SLO engine) and lint naming, type lines, histogram bucket
// monotonicity, and the presence of the new serenade_slo_* and health
// families.
func TestPromExpositionConformance(t *testing.T) {
	s := testServer(t, Config{
		SlowQueryThreshold:  time.Nanosecond, // everything is "slow": exercises the slowlog counters
		SLOLatencyThreshold: time.Millisecond,
		SLOErrorBudget:      0.001,
		Logger:              slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	for i := 0; i < 10; i++ {
		if _, err := s.Recommend(Request{SessionKey: "u1", Item: popularItem(), Consent: true}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	raw := sb.String()
	samples := parseExposition(t, raw)

	// The new families must be present.
	want := map[string]bool{
		"serenade_slo_latency_threshold_seconds": false,
		"serenade_slo_burn_rate":                 false,
		"serenade_slo_fast_burn":                 false,
		"serenade_slo_budget_remaining":          false,
		"serenade_inflight_requests":             false,
		"serenade_slowlog_entries_total":         false,
		"serenade_slowlog_suppressed_total":      false,
	}
	for _, sm := range samples {
		if _, ok := want[sm.name]; ok {
			want[sm.name] = true
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("exposition missing family %s", name)
		}
	}

	// Every request runs the kernel, so the candidates stage is observed.
	var candidatesCount float64
	for _, sm := range samples {
		if sm.name == "serenade_stage_latency_seconds_count" && sm.labels["stage"] == "candidates" {
			candidatesCount = sm.value
		}
	}
	if candidatesCount == 0 {
		t.Error("candidates stage histogram has no observations")
	}

	checkHistogramBuckets(t, samples)
}

// checkHistogramBuckets asserts, per histogram series, that le bounds are
// monotonically increasing, cumulative counts are non-decreasing, the +Inf
// bucket exists, and it equals the series count.
func checkHistogramBuckets(t *testing.T, samples []promSample) {
	t.Helper()
	type bucket struct {
		le    float64
		count float64
		line  int
	}
	buckets := map[string][]bucket{} // series key (name + labels sans le)
	counts := map[string]float64{}
	for _, sm := range samples {
		if base, ok := strings.CutSuffix(sm.name, "_bucket"); ok {
			le := sm.labels["le"]
			bound := math.Inf(1)
			if le != "+Inf" {
				var err error
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Errorf("line %d: bad le %q", sm.line, le)
					continue
				}
			}
			buckets[base+seriesKey(sm.labels, "le")] = append(
				buckets[base+seriesKey(sm.labels, "le")],
				bucket{le: bound, count: sm.value, line: sm.line})
		}
		if base, ok := strings.CutSuffix(sm.name, "_count"); ok {
			counts[base+seriesKey(sm.labels)] = sm.value
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	for key, bs := range buckets {
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le {
				t.Errorf("%s: le not increasing at line %d (%g after %g)", key, bs[i].line, bs[i].le, bs[i-1].le)
			}
			if bs[i].count < bs[i-1].count {
				t.Errorf("%s: cumulative count decreases at line %d (%g after %g)", key, bs[i].line, bs[i].count, bs[i-1].count)
			}
		}
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			t.Errorf("%s: missing +Inf bucket", key)
			continue
		}
		if total, ok := counts[key]; !ok || total != last.count {
			t.Errorf("%s: +Inf bucket %g != count %g", key, last.count, total)
		}
	}
}

// seriesKey renders a label set (minus excluded names) deterministically.
func seriesKey(labels map[string]string, exclude ...string) string {
	skip := map[string]bool{}
	for _, e := range exclude {
		skip[e] = true
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !skip[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteByte('|')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
	}
	return sb.String()
}
