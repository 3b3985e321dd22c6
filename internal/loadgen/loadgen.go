// Package loadgen generates request load against a recommendation service
// and records the measurements plotted in Figure 3(b) of the paper:
// requests per second, response-latency percentiles (p75/p90/p99.5) per time
// bucket, and core usage.
//
// The generator is open-loop: requests are dispatched on a fixed schedule
// derived from the target rate regardless of how fast responses return, the
// discipline that exposes queueing delay (a closed loop would throttle
// itself and hide latency degradation).
package loadgen

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"serenade/internal/metrics"
	"serenade/internal/serving"
	"serenade/internal/sessions"
)

// Config parameterises a load test.
type Config struct {
	// TargetRPS is the intended request rate.
	TargetRPS int
	// Duration is the test length.
	Duration time.Duration
	// Workers is the number of concurrent request executors; 0 selects
	// enough for the target rate assuming ~1ms service time.
	Workers int
	// Bucket is the time-series resolution; 0 means one second.
	Bucket time.Duration
}

// BucketPoint is one time bucket of load-test output.
type BucketPoint struct {
	Offset   time.Duration
	Requests uint64
	// Errors counts failed requests in the bucket, including dispatches
	// dropped because the workers were saturated — the per-bucket error
	// series an SLO burn-rate trajectory is read against.
	Errors uint64
	P75    time.Duration
	P90    time.Duration
	P995   time.Duration
	// Cores is the average number of CPU cores busy during the bucket
	// (process-wide), the "core usage" curve of Figure 3(b).
	Cores float64
}

// bucketCounter is a mutex-protected per-bucket event counter aligned with
// the latency series buckets.
type bucketCounter struct {
	bucket time.Duration
	mu     sync.Mutex
	counts []uint64
}

func (c *bucketCounter) inc(offset time.Duration) {
	if offset < 0 {
		offset = 0
	}
	idx := int(offset / c.bucket)
	c.mu.Lock()
	for len(c.counts) <= idx {
		c.counts = append(c.counts, 0)
	}
	c.counts[idx]++
	c.mu.Unlock()
}

func (c *bucketCounter) at(i int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.counts) {
		return 0
	}
	return c.counts[i]
}

// Result summarises a load test.
type Result struct {
	Points      []BucketPoint
	Total       *metrics.Histogram
	Sent        uint64
	Errors      uint64
	AchievedRPS float64
	Elapsed     time.Duration

	// GC telemetry over the run (process-wide MemStats deltas). The
	// allocation count includes the generator's own bookkeeping, so the
	// absolute number overstates the server cost slightly; its movement
	// between runs is the signal — an edge that re-grows per-request
	// garbage shows up here before the latency percentiles react.
	AllocsPerRequest float64
	AllocBytesPerReq float64
	GCPause          time.Duration
	GCCycles         uint32
}

// Run drives do at the configured rate. do receives a monotonically
// increasing request number.
func Run(cfg Config, do func(i uint64) error) (*Result, error) {
	if cfg.TargetRPS <= 0 {
		return nil, fmt.Errorf("loadgen: TargetRPS must be positive, got %d", cfg.TargetRPS)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Duration must be positive, got %v", cfg.Duration)
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = time.Second
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = cfg.TargetRPS/500 + 4
	}

	series := metrics.NewSeries(cfg.Bucket)
	errSeries := &bucketCounter{bucket: cfg.Bucket}
	var sent, errs atomic.Uint64
	queue := make(chan uint64, cfg.TargetRPS) // one second of headroom
	var wg sync.WaitGroup
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				began := time.Now()
				err := do(i)
				elapsed := time.Since(began)
				series.Record(began.Sub(start), elapsed)
				if err != nil {
					errs.Add(1)
					errSeries.inc(began.Sub(start))
				}
			}
		}()
	}

	cpu := newCPUSampler()
	cpuSamples := sampleCPUPerBucket(cpu, cfg.Bucket, cfg.Duration)

	// Dispatch in 10ms slices to approximate a uniform arrival process
	// without a per-request timer.
	const slice = 10 * time.Millisecond
	perSlice := float64(cfg.TargetRPS) * slice.Seconds()
	var carry float64
	var n uint64
	deadline := start.Add(cfg.Duration)
	next := start
	for time.Now().Before(deadline) {
		carry += perSlice
		for carry >= 1 {
			carry--
			select {
			case queue <- n:
				n++
			default:
				// The workers are saturated; the request is dropped, which
				// is what a production load balancer would do past SLA.
				errs.Add(1)
				errSeries.inc(time.Since(start))
			}
		}
		next = next.Add(slice)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)
	sent.Store(n)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	cores := <-cpuSamples
	points := make([]BucketPoint, 0)
	for i, sp := range series.Points() {
		p := BucketPoint{
			Offset:   sp.Offset,
			Requests: sp.Requests,
			Errors:   errSeries.at(i),
			P75:      sp.P75,
			P90:      sp.P90,
			P995:     sp.P995,
		}
		if i < len(cores) {
			p.Cores = cores[i]
		}
		points = append(points, p)
	}
	res := &Result{
		Points:      points,
		Total:       series.Total(),
		Sent:        sent.Load(),
		Errors:      errs.Load(),
		AchievedRPS: float64(sent.Load()) / elapsed.Seconds(),
		Elapsed:     elapsed,
		GCPause:     time.Duration(msAfter.PauseTotalNs - msBefore.PauseTotalNs),
		GCCycles:    msAfter.NumGC - msBefore.NumGC,
	}
	if done := res.Sent; done > 0 {
		res.AllocsPerRequest = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(done)
		res.AllocBytesPerReq = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(done)
	}
	return res, nil
}

// sampleCPUPerBucket samples process CPU time per bucket for the duration
// and delivers the per-bucket core usage once finished.
func sampleCPUPerBucket(c *cpuSampler, bucket, duration time.Duration) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var cores []float64
		prev, _ := c.processCPUTime()
		deadline := time.Now().Add(duration)
		for time.Now().Before(deadline) {
			time.Sleep(bucket)
			cur, ok := c.processCPUTime()
			if !ok {
				cores = append(cores, 0)
				continue
			}
			cores = append(cores, (cur-prev).Seconds()/bucket.Seconds())
			prev = cur
		}
		out <- cores
	}()
	return out
}

// Workload turns held-out sessions into the replay request stream the
// paper's load test uses ("replaying historical traffic"). Each click of
// each test session becomes one session-update request; limit > 0 caps the
// number of requests.
func Workload(ds *sessions.Dataset, limit int) []serving.Request {
	return BurstWorkload(ds, limit, 1)
}

// BurstWorkload replays each session burst times under distinct session
// keys, interleaved click by click: at every point of every session, burst
// users sit at the same position of the same click path. This is the
// duplicate-heavy traffic shape of flash sales and landing-page campaigns —
// the workload the single-flight result cache is built for. burst <= 1
// degenerates to Workload.
func BurstWorkload(ds *sessions.Dataset, limit, burst int) []serving.Request {
	if burst < 1 {
		burst = 1
	}
	var reqs []serving.Request
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		for _, item := range s.Items {
			for b := 0; b < burst; b++ {
				key := fmt.Sprintf("replay-%d", s.ID)
				if burst > 1 {
					key = fmt.Sprintf("replay-%d-%d", s.ID, b)
				}
				reqs = append(reqs, serving.Request{
					SessionKey: key,
					Item:       item,
					Consent:    true,
				})
				if limit > 0 && len(reqs) >= limit {
					return reqs
				}
			}
		}
	}
	return reqs
}
