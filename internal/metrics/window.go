package metrics

import (
	"sync/atomic"
	"time"
)

// windowLanes is the number of independent counters a WindowedCounter tracks
// per time bucket. Three lanes cover every current use: the SLO engine
// records (total, slow, error) per request and the result cache records
// (lookups, hits) per prediction.
const windowLanes = 3

// winBucket is one second of windowed counts. stamp is the unix second the
// bucket currently holds; a bucket whose stamp has fallen out of the queried
// window is dead weight that the next writer landing on its slot recycles.
// The struct is padded to its own cache line so two adjacent seconds never
// false-share under concurrent writers.
type winBucket struct {
	stamp atomic.Int64
	lanes [windowLanes]atomic.Uint64
	_     [64 - 8 - 8*windowLanes]byte
}

// WindowedCounter is a rolling multi-window counter: a ring of per-second
// buckets covering a fixed horizon, from which the counts of any trailing
// window up to the horizon can be summed. It is the accumulator beneath the
// SLO engine's burn rates and the health signal's hit-ratio windows.
//
// Add is wait-free and allocation-free: one atomic stamp check (plus a CAS
// when the bucket rolls into a new second) and one atomic add per lane. A
// count recorded concurrently with the bucket's once-per-second recycling can
// be lost — at most one writer's worth per lane per second, which is noise
// against the window sums this feeds. Sum never blocks writers.
type WindowedCounter struct {
	horizon int64 // seconds of history, = len(buckets)
	nowUnix func() int64
	buckets []winBucket
}

// NewWindowedCounter creates a counter able to answer windows up to horizon.
// now is the clock (nil means time.Now); tests inject a fake to drive the
// window deterministically.
func NewWindowedCounter(horizon time.Duration, now func() time.Time) *WindowedCounter {
	secs := int64(horizon / time.Second)
	if secs < 1 {
		secs = 1
	}
	nowUnix := func() int64 { return time.Now().Unix() }
	if now != nil {
		nowUnix = func() int64 { return now().Unix() }
	}
	w := &WindowedCounter{horizon: secs, nowUnix: nowUnix, buckets: make([]winBucket, secs)}
	for i := range w.buckets {
		w.buckets[i].stamp.Store(-1)
	}
	return w
}

// Horizon reports the longest answerable window.
func (w *WindowedCounter) Horizon() time.Duration {
	return time.Duration(w.horizon) * time.Second
}

// Add records one observation: l0..l2 are added to the current second's
// lanes. Zero-valued lanes still cost one atomic add; callers on hot paths
// pass 0/1 flags, so the branch is not worth its misprediction.
func (w *WindowedCounter) Add(l0, l1, l2 uint64) {
	now := w.nowUnix()
	b := &w.buckets[now%w.horizon]
	if s := b.stamp.Load(); s != now {
		if b.stamp.CompareAndSwap(s, now) {
			// This writer recycles the bucket for the new second. A racing
			// add between the CAS and these stores is lost; see type doc.
			for i := range b.lanes {
				b.lanes[i].Store(0)
			}
		}
	}
	b.lanes[0].Add(l0)
	b.lanes[1].Add(l1)
	b.lanes[2].Add(l2)
}

// Sum totals the lanes over the trailing window (clamped to the horizon),
// including the in-progress current second for responsiveness.
func (w *WindowedCounter) Sum(window time.Duration) (l0, l1, l2 uint64) {
	secs := int64(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > w.horizon {
		secs = w.horizon
	}
	now := w.nowUnix()
	oldest := now - secs + 1
	for i := range w.buckets {
		b := &w.buckets[i]
		if s := b.stamp.Load(); s >= oldest && s <= now {
			l0 += b.lanes[0].Load()
			l1 += b.lanes[1].Load()
			l2 += b.lanes[2].Load()
		}
	}
	return l0, l1, l2
}
