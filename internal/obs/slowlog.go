package obs

import (
	"log/slog"
	"sync/atomic"
	"time"
)

// SlowLog is a sampled slow-query log: every request slower than Threshold
// gets its full trace dumped through a slog.Logger, rate-limited to
// MaxPerSecond entries so a latency incident cannot turn the log itself
// into the bottleneck. Suppressed entries are counted and reported by
// Flush (and on the next emitted entry).
type SlowLog struct {
	logger       *slog.Logger
	threshold    time.Duration
	maxPerSecond int64

	winStart   atomic.Int64 // unix second of the current rate window
	winCount   atomic.Int64
	logged     atomic.Uint64
	suppressed atomic.Uint64 // drained into the next emitted entry
	// suppressedTotal never resets; it backs the exported metric so dropped
	// slow-log lines stay visible even though suppressed drains per entry.
	suppressedTotal atomic.Uint64

	// burnState, when set, is sampled at emission time so each slow-query
	// line carries the SLO burn picture the request contributed to. It
	// returns the worst current burn rate and the page/ticket conditions.
	burnState atomic.Pointer[func() (worst float64, fastBurn, slowBurn bool)]
}

// NewSlowLog creates a slow-query log. A nil logger uses slog.Default();
// maxPerSecond <= 0 means 5.
func NewSlowLog(logger *slog.Logger, threshold time.Duration, maxPerSecond int) *SlowLog {
	if logger == nil {
		logger = slog.Default()
	}
	if maxPerSecond <= 0 {
		maxPerSecond = 5
	}
	return &SlowLog{logger: logger, threshold: threshold, maxPerSecond: int64(maxPerSecond)}
}

// SetBurnState wires a provider (typically the SLO engine's Burning method)
// whose snapshot is attached to every slow-query entry.
func (l *SlowLog) SetBurnState(fn func() (worst float64, fastBurn, slowBurn bool)) {
	if l != nil && fn != nil {
		l.burnState.Store(&fn)
	}
}

// Logged reports the number of emitted entries.
func (l *SlowLog) Logged() uint64 { return l.logged.Load() }

// SuppressedTotal reports the cumulative number of rate-limited entries; it
// is monotone, unlike the per-entry drain, so it can back a counter metric.
func (l *SlowLog) SuppressedTotal() uint64 { return l.suppressedTotal.Load() }

// IsSlow reports whether a total duration crosses the threshold.
func (l *SlowLog) IsSlow(d time.Duration) bool {
	return l != nil && l.threshold > 0 && d >= l.threshold
}

// Log emits the span's full stage breakdown, subject to the per-second cap.
func (l *SlowLog) Log(sp *Span) {
	now := time.Now().Unix()
	if l.winStart.Load() != now {
		// A stale window resets the budget; the CAS loser just counts
		// against the winner's fresh window.
		l.winStart.Store(now)
		l.winCount.Store(0)
	}
	if l.winCount.Add(1) > l.maxPerSecond {
		l.suppressed.Add(1)
		l.suppressedTotal.Add(1)
		return
	}
	l.logged.Add(1)
	attrs := make([]any, 0, 2*int(NumStages)+26)
	attrs = append(attrs,
		"trace_id", sp.TraceID,
		"op", sp.Op,
		"total", sp.Total,
		"threshold", l.threshold,
	)
	if sp.RequestID != "" {
		attrs = append(attrs, "request_id", sp.RequestID)
	}
	for i, d := range sp.Stages {
		if d > 0 {
			attrs = append(attrs, "stage_"+Stage(i).String(), d)
		}
	}
	if fn := l.burnState.Load(); fn != nil {
		worst, fastBurn, slowBurn := (*fn)()
		attrs = append(attrs,
			"slo_burn_rate", worst,
			"slo_fast_burn", fastBurn,
			"slo_slow_burn", slowBurn,
		)
	}
	if sp.Error != "" {
		attrs = append(attrs, "error", sp.Error)
	}
	if sup := l.suppressed.Swap(0); sup > 0 {
		attrs = append(attrs, "suppressed_since_last", sup)
	}
	l.logger.Warn("slow query", attrs...)
}

// Flush emits a final summary; serving binaries call it on shutdown so
// suppressed-entry counts are never lost.
func (l *SlowLog) Flush() {
	if l == nil {
		return
	}
	l.logger.Info("slow-query log summary",
		"threshold", l.threshold,
		"logged", l.logged.Load(),
		"suppressed", l.suppressed.Load(),
	)
}
