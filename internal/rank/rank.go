// Package rank holds the ranking-math primitives shared by the offline
// evaluators (internal/metrics, internal/abtest) and the online quality
// experiment (internal/experiments): first-occurrence rank lookup,
// reciprocal-rank, catalogue coverage, quantiles, rank histograms and
// distribution distance. Keeping one implementation is the point — the
// online MRR estimator must agree bit-for-bit with the offline MRR@k it is
// compared against, or "drift" becomes an artefact of divergent math.
package rank

import (
	"sort"

	"serenade/internal/core"
	"serenade/internal/sessions"
)

// RankOf returns the 1-based rank of the first occurrence of target within
// the top k entries of items, or 0 when absent. k <= 0 means the whole list.
func RankOf(items []sessions.ItemID, target sessions.ItemID, k int) int {
	if k <= 0 || k > len(items) {
		k = len(items)
	}
	for i := 0; i < k; i++ {
		if items[i] == target {
			return i + 1
		}
	}
	return 0
}

// RankOfScored is RankOf over a scored recommendation list.
func RankOfScored(recs []core.ScoredItem, target sessions.ItemID, k int) int {
	if k <= 0 || k > len(recs) {
		k = len(recs)
	}
	for i := 0; i < k; i++ {
		if recs[i].Item == target {
			return i + 1
		}
	}
	return 0
}

// Reciprocal converts a 1-based rank into its reciprocal-rank contribution;
// rank 0 (absent) contributes nothing.
func Reciprocal(r int) float64 {
	if r <= 0 {
		return 0
	}
	return 1.0 / float64(r)
}

// Coverage is the share of a catalogue that appeared in at least one
// recommendation list; 0 when the catalogue size is unknown.
func Coverage(distinct, catalogSize int) float64 {
	if catalogSize <= 0 {
		return 0
	}
	return float64(distinct) / float64(catalogSize)
}

// Quantile returns the q-quantile (0<=q<=1) of values using linear
// interpolation between order statistics. It returns 0 for empty input.
// values need not be sorted; a sorted copy is made.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile over an already-sorted slice, for callers that
// amortise the sort across several quantile reads.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram counts events by 1-based rank position up to a fixed cutoff K.
// Rank 0 (miss) is not counted; ranks beyond K clamp into the last bucket so
// the total is preserved.
type Histogram struct {
	Counts []uint64
}

// NewHistogram returns a histogram with k buckets for ranks 1..k.
func NewHistogram(k int) *Histogram {
	if k < 1 {
		k = 1
	}
	return &Histogram{Counts: make([]uint64, k)}
}

// Add counts one event at 1-based rank r; r <= 0 is ignored, r > K clamps.
func (h *Histogram) Add(r int) {
	if r <= 0 {
		return
	}
	if r > len(h.Counts) {
		r = len(h.Counts)
	}
	h.Counts[r-1]++
}

// Total reports the number of counted events.
func (h *Histogram) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Dist normalises the histogram into a probability distribution over ranks;
// nil when the histogram is empty.
func (h *Histogram) Dist() []float64 {
	n := h.Total()
	if n == 0 {
		return nil
	}
	out := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(n)
	}
	return out
}

// MRR reports the mean reciprocal rank of the histogram's events over a
// denominator of n trials (events with rank 0 simply contribute nothing);
// with n == Total() this is the conditional MRR given a hit.
func (h *Histogram) MRR(n uint64) float64 {
	if n == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.Counts {
		sum += float64(c) * Reciprocal(i+1)
	}
	return sum / float64(n)
}

// TotalVariation is the total-variation distance between two distributions:
// half the L1 distance, in [0, 1]. Distributions of different lengths are
// compared by treating missing entries as zero mass.
func TotalVariation(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	var l1 float64
	for i := 0; i < n; i++ {
		var pv, qv float64
		if i < len(p) {
			pv = p[i]
		}
		if i < len(q) {
			qv = q[i]
		}
		d := pv - qv
		if d < 0 {
			d = -d
		}
		l1 += d
	}
	return l1 / 2
}
