package main

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"serenade/client"
	"serenade/internal/serving"
)

// sla is the paper's latency limit: the frontend drops a slot that is not
// answered within 50 ms.
const sla = 50 * time.Millisecond

// clientTimeout is how long the generator waits for an answer. It is far
// above the SLA on purpose: on a shared host a stall of 50 ms or more comes
// along a few times in 100,000 requests, and a client that gives up at the
// SLA turns each into an operation with no answer to check. With a long
// wait the answer still arrives and is checked; that it came after the SLA
// is measured (sample.ok, slaMisses, ok_ratio, throughput_rps), not failed.
const clientTimeout = 5 * time.Second

// newClient returns the production client on a transport with exactly conns
// keep-alive connections; retries are off so attempts equal operations.
func newClient(base string, conns int, timeout time.Duration) (*client.Client, *http.Transport, error) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	cl, err := client.New(client.Options{
		BaseURL:        base,
		Timeout:        timeout,
		DisableRetries: true,
		HTTPClient:     &http.Client{Transport: tr},
	})
	return cl, tr, err
}

type outcome uint8

const (
	answered outcome = iota
	timedOut
	httpError
)

// sample is one request as the generator saw it. Times are nanoseconds; end
// counts from the start of the phase.
type sample struct {
	end  int64
	lat  int64 // due time to response: what a user waits, queueing included
	svc  int64 // send to response
	late int64 // how far behind its due time the send ran (open loop)
	kind outcome
}

// ok reports whether the request was answered within the SLA.
func (s sample) ok() bool { return s.kind == answered && s.lat <= int64(sla) }

// loadSpec describes one phase of traffic.
type loadSpec struct {
	stream []request
	phase  string // session-key prefix, distinct per phase
	conns  int
	// rate > 0 is an open loop: request i of the (lapped) stream is due at
	// start + i/rate and is timed from then. rate == 0 is a closed loop: each
	// connection sends its next request when the previous one is answered.
	rate float64
	// duration ends the phase; 0 sends the stream once and stops.
	duration time.Duration
	// collect, when set, receives every response with its stream index.
	collect func(i int, resp serving.Response, err error)
}

// runLoad sends the stream over spec.conns connections, one goroutine each.
// A session's clicks all go to one connection, in stream order; when the
// stream is exhausted it is replayed under the next lap's session keys.
func runLoad(ctx context.Context, cl *client.Client, spec loadSpec) ([]sample, time.Duration) {
	parts := make([][]int, spec.conns)
	for i, r := range spec.stream {
		c := connOf(r.Session, spec.conns)
		parts[c] = append(parts[c], i)
	}
	perWorker := make([][]sample, spec.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			perWorker[w] = runConn(ctx, cl, spec, parts[w], start)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	return all, elapsed
}

func runConn(ctx context.Context, cl *client.Client, spec loadSpec, mine []int, start time.Time) []sample {
	var out []sample
	if len(mine) == 0 {
		return out
	}
	for lap := 0; ; lap++ {
		for _, i := range mine {
			if ctx.Err() != nil {
				return out
			}
			due := time.Now()
			if spec.rate > 0 {
				due = start.Add(dueOffset(lap*len(spec.stream)+i, spec.rate))
			}
			if spec.duration > 0 && due.Sub(start) >= spec.duration {
				return out
			}
			sent := due
			if spec.rate > 0 {
				waitUntil(due)
				sent = time.Now()
			}
			r := spec.stream[i]
			resp, err := cl.Recommend(ctx, sessionKey(spec.phase, lap, r.Session), r.Item, r.Consent)
			end := time.Now()
			out = append(out, sample{
				end:  int64(end.Sub(start)),
				lat:  int64(end.Sub(due)),
				svc:  int64(end.Sub(sent)),
				late: int64(sent.Sub(due)),
				kind: classify(err),
			})
			if spec.collect != nil {
				spec.collect(i, resp, err)
			}
		}
		if spec.duration == 0 {
			return out
		}
	}
}

// dueOffset is the open-loop schedule: request i is due i/rate after start.
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// spinLead is how long before its due time an open-loop connection stops
// sleeping and starts spinning. A Go timer on an idle P is an epoll_wait
// with a timeout in whole milliseconds, so a sleep can run up to a
// millisecond over: with half a millisecond of lead gen.late_p99_us read 620,
// with one millisecond it reads 2.5.
const spinLead = time.Millisecond

// waitUntil sleeps until spinLead before t and spins from there. Three ways
// to wait were measured on replay-open (two connections and a one-thread
// server on two vCPUs, ten runs on ten seeds each, spread = (q3-q1)/median):
//   - sleeping all the way: the timer's lateness counts as latency; p50
//     moved between 0.29 and 0.48 ms from run to run.
//   - spinning all the way: three busy threads on two vCPUs, so the server
//     has to push a spinner aside for every request and anything else that
//     runs on the box lands on it: p50 0.23-0.32 ms, p90 spread 3 to 22 %
//     depending on the hour, and a stray process using a tenth of a core
//     moved p90 by 25 %.
//   - sleeping, then spinning the last millisecond: sends are on time, the
//     vCPUs are idle most of the time, as a pod's are at this rate, and a
//     request pays for waking them: p50 0.36-0.37 ms and p90 0.48-0.49 ms
//     (spreads 7-9 %), and the same stray process moved p50 by 3 % and p90
//     by 10 %.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinLead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

func classify(err error) outcome {
	if err == nil {
		return answered
	}
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return timedOut
	}
	return httpError
}

// percentile returns the p-quantile (0 < p <= 1) of ascending values. A
// percentile above the median is only read with ten samples beyond it: a
// thin tail falls back to the highest rank that has them, at worst to the
// median, which is always reported.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := max(int(math.Ceil(p*float64(n))), 1)
	if half := (n + 1) / 2; rank > half {
		rank = max(min(rank, n-10), half)
	}
	return sorted[rank-1]
}

// loadStats is the generator's view of one measured window.
type loadStats struct {
	sent, ok, timeouts, httpErrors int
	slaMisses                      int       // answered, but later than the SLA
	okLat                          []int64   // ascending, requests answered within the SLA
	meanSvcUs                      float64   // over answered requests
	perSecond                      []int     // answered-in-time requests completed in each whole second of the window
	secP50Ms, secP90Ms             []float64 // latency percentiles of each of those seconds that has a sample
	latePct99Us, backlogEndMs      float64
	maxMs                          float64
}

// summarize reduces the samples of a phase against its nominal window; it
// reorders samples.
func summarize(samples []sample, window time.Duration) loadStats {
	st := loadStats{sent: len(samples)}
	st.perSecond = make([]int, int(window/time.Second))
	bySecond := make([][]int64, len(st.perSecond))
	late := make([]int64, 0, len(samples))
	var svcSum float64
	answeredN := 0
	for _, s := range samples {
		switch s.kind {
		case timedOut:
			st.timeouts++
		case httpError:
			st.httpErrors++
		default:
			answeredN++
			svcSum += float64(s.svc)
			if !s.ok() {
				st.slaMisses++
			}
		}
		late = append(late, s.late)
		if ms := float64(s.lat) / 1e6; ms > st.maxMs {
			st.maxMs = ms
		}
		if s.ok() {
			st.ok++
			st.okLat = append(st.okLat, s.lat)
			if sec := int(s.end / int64(time.Second)); sec < len(st.perSecond) {
				st.perSecond[sec]++
				bySecond[sec] = append(bySecond[sec], s.lat)
			}
		}
	}
	sort.Slice(st.okLat, func(a, b int) bool { return st.okLat[a] < st.okLat[b] })
	for _, lat := range bySecond {
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		st.secP50Ms = append(st.secP50Ms, float64(percentile(lat, 0.50))/1e6)
		st.secP90Ms = append(st.secP90Ms, float64(percentile(lat, 0.90))/1e6)
	}
	if answeredN > 0 {
		st.meanSvcUs = svcSum / float64(answeredN) / 1e3
	}
	// The backlog at the end is how late the last hundredth of the sends ran;
	// samples are per connection in send order, so order by completion first.
	sort.Slice(samples, func(a, b int) bool { return samples[a].end < samples[b].end })
	if n := len(samples); n > 0 {
		tail := samples[n-(n+99)/100:]
		var sum float64
		for _, s := range tail {
			sum += float64(s.late)
		}
		st.backlogEndMs = sum / float64(len(tail)) / 1e6
	}
	sort.Slice(late, func(a, b int) bool { return late[a] < late[b] })
	st.latePct99Us = float64(percentile(late, 0.99)) / 1e3
	return st
}

// median is the middle value, the mean of the middle two of an even count.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// goodputPerSecond is the median over the whole seconds of the window of the
// requests answered in time in that second. The end-to-end figures are
// medians over seconds, not figures of the whole window, because this host
// slows down for a few seconds at a time: four slow seconds in fifteen move a
// whole-window p90 by a quarter and the window's mean rate by 4 %, and leave
// the median second where it was.
func goodputPerSecond(perSecond []int) float64 {
	v := make([]float64, len(perSecond))
	for i, n := range perSecond {
		v[i] = float64(n)
	}
	return median(v)
}

// cpuPoint is the server's CPU time so far, read at a moment of the window.
type cpuPoint struct {
	at         time.Duration
	cpuSeconds float64
}

// cpuSlice is the distance between CPU readings: /proc counts in ticks of
// 10 ms, and an open loop at 500 req/s burns about a tenth of a core, so a
// slice has to be a few seconds long to hold some dozens of ticks.
const cpuSlice = 3 * time.Second

// cpuPerRequestUs is the median over the slices between consecutive readings
// of the server's CPU time in the slice over the requests it answered in it.
func cpuPerRequestUs(points []cpuPoint, samples []sample) float64 {
	var per []float64
	for i := 1; i < len(points); i++ {
		from, to := int64(points[i-1].at), int64(points[i].at)
		n := 0
		for _, s := range samples {
			if s.kind == answered && s.end >= from && s.end < to {
				n++
			}
		}
		if n > 0 {
			per = append(per, (points[i].cpuSeconds-points[i-1].cpuSeconds)*1e6/float64(n))
		}
	}
	return median(per)
}

// rateDrift is completions in the last third of the window over the first
// third: 1 means the rate held.
func rateDrift(perSecond []int) float64 {
	n := len(perSecond)
	third := n / 3
	if third == 0 {
		return 1
	}
	first, last := 0, 0
	for i := 0; i < third; i++ {
		first += perSecond[i]
		last += perSecond[n-third+i]
	}
	if first == 0 {
		return 0
	}
	return float64(last) / float64(first)
}
