package obs

import (
	"runtime"
	"time"
)

// HealthSignal is one replica's overload telemetry snapshot: the leading
// indicator admission control needs (in-flight requests) next to the
// trailing ones (burn rates, GC pressure). Serving fills it, the
// cluster proxy republishes it per backend at /proxy/health, and the load
// tester prints it against the offered load.
//
// Durations serialise as nanoseconds, matching /debug/traces.
type HealthSignal struct {
	Replica string    `json:"replica,omitempty"`
	Time    time.Time `json:"time"`

	// Request pressure.
	InFlight int64 `json:"in_flight"`

	// SLO burn summary (worst endpoint).
	BurnRate float64 `json:"slo_burn_rate"`
	FastBurn bool    `json:"slo_fast_burn"`
	SlowBurn bool    `json:"slo_slow_burn"`

	// Runtime pressure. AllocRate is the heap allocation rate between
	// successive health polls — the leading GC-pressure indicator: a deploy
	// that regresses the hot path's allocation discipline shows here before
	// pause times move.
	Goroutines    int           `json:"goroutines"`
	HeapAlloc     uint64        `json:"heap_alloc_bytes"`
	AllocTotal    uint64        `json:"alloc_total_bytes"`
	AllocRate     float64       `json:"alloc_bytes_per_sec"`
	LastGCPause   time.Duration `json:"last_gc_pause_ns"`
	GCPauseTotal  time.Duration `json:"gc_pause_total_ns"`
	GCCycles      uint32        `json:"gc_cycles"`
	GCCPUFraction float64       `json:"gc_cpu_fraction"`
}

// healthAllocMeter backs AllocRate across FillRuntime calls; package-level
// because the signal itself is a per-poll value.
var healthAllocMeter AllocRateMeter

// FillRuntime populates the runtime-pressure fields from the Go runtime.
// ReadMemStats stops the world briefly; health is polled at human frequency,
// not per request, so that cost is acceptable here.
func (h *HealthSignal) FillRuntime() {
	h.Goroutines = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.HeapAlloc = ms.HeapAlloc
	h.AllocTotal = ms.TotalAlloc
	h.AllocRate = healthAllocMeter.Observe(ms.TotalAlloc, time.Now())
	h.GCPauseTotal = time.Duration(ms.PauseTotalNs)
	h.GCCycles = ms.NumGC
	h.GCCPUFraction = ms.GCCPUFraction
	if ms.NumGC > 0 {
		h.LastGCPause = time.Duration(ms.PauseNs[(ms.NumGC+255)%256])
	}
}
