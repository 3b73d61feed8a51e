// Package stream holds the constant-memory streaming aggregators behind
// bounded result collection (core.Config.ResultMode = "bounded"): a
// fixed-boundary log-bucketed histogram with exact count/sum/min/max and
// bounded-relative-error quantiles, a seeded deterministic reservoir
// sampler for exemplar rows, and a windowed downsampler that caps an
// observability series at a fixed point budget. The hottest sites and
// datasets need no sketch: metrics ranks them from exact per-site and
// per-file counts.
//
// Every aggregator is deterministic: no wall clock, no global randomness
// (the reservoir draws from an explicitly passed rng.Source sub-stream),
// and no map iteration affects any output. Feeding the same observations
// in the same order therefore yields byte-identical summaries regardless
// of how many campaign workers run around the simulation — the same
// contract the rest of the simulator keeps.
package stream

import (
	"math"
)

// Histogram accuracy and index-range constants. The bucket boundaries are
// fixed at construction (they do not depend on the data), so two
// histograms fed different streams are always mergeable and a given value
// always lands in the same bucket.
const (
	// histRelAcc is the target relative accuracy α of quantile estimates:
	// a reported quantile q̂ satisfies |q̂ − q| ≤ α·q for true quantile q
	// within the indexable range. γ = (1+α)/(1−α).
	histRelAcc = 0.01
	// histMinIndexable is the smallest positive value with its own log
	// bucket; smaller observations (including zero) collapse into a
	// dedicated zero bucket whose quantile estimate is 0 (absolute error
	// ≤ histMinIndexable there).
	histMinIndexable = 1e-9
	// histMaxIndexable caps the top bucket; larger observations clamp into
	// it. 1e12 seconds is ~31,700 years of virtual time — far beyond any
	// simulated response.
	histMaxIndexable = 1e12
)

// Histogram is a fixed-boundary log-bucketed histogram (DDSketch-style):
// bucket i covers (γ^(i−1), γ^i] with γ = (1+α)/(1−α), α = 1%. Memory is
// O(1): the bucket array spans [histMinIndexable, histMaxIndexable] and
// is sized once at construction (~2.4k uint64 counters ≈ 19 KiB),
// independent of how many values are observed. Count, sum, min, and max
// are tracked exactly; only quantile positions are approximate.
type Histogram struct {
	counts []uint64
	offset int // counts[0] holds log-bucket index -offset
	zero   uint64

	count    uint64
	sum      float64
	min, max float64

	gamma     float64
	invLogGam float64
}

// NewHistogram returns an empty histogram with the package's fixed 1%
// relative-accuracy bucket layout.
func NewHistogram() *Histogram {
	gamma := (1 + histRelAcc) / (1 - histRelAcc)
	logGam := math.Log(gamma)
	lo := int(math.Ceil(math.Log(histMinIndexable) / logGam))
	hi := int(math.Ceil(math.Log(histMaxIndexable) / logGam))
	return &Histogram{
		counts:    make([]uint64, hi-lo+1),
		offset:    -lo,
		gamma:     gamma,
		invLogGam: 1 / logGam,
	}
}

// RelativeError returns the documented quantile accuracy bound α: within
// the indexable range, Quantile(p) is within ±α of the true quantile in
// relative terms.
func (h *Histogram) RelativeError() float64 { return histRelAcc }

// Observe records one value. NaN observations are ignored (they have no
// place on the bucket axis); negative values count into the zero bucket.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= histMinIndexable {
		h.zero++
		return
	}
	i := int(math.Ceil(math.Log(v)*h.invLogGam)) + h.offset
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
}

// Count returns the exact number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the exact minimum observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the p-quantile by nearest rank (the same rank
// convention the full-mode percentile helper uses: rank ⌈p·n⌉). The
// estimate is the geometric midpoint of the rank's bucket — within ±1%
// relative error of the true quantile — clamped into the exact [min, max]
// range so the extreme quantiles never overshoot the data.
func (h *Histogram) Quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.count {
		return h.max // the top rank's value is tracked exactly
	}
	if rank <= h.zero {
		return h.clamp(0)
	}
	cum := h.zero
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return h.clamp(h.bucketValue(i))
		}
	}
	return h.max // unreachable unless counters drifted; fail safe
}

// bucketValue returns bucket i's representative: the midpoint value
// 2·γ^idx/(γ+1), which bounds relative error at (γ−1)/(γ+1) = α.
func (h *Histogram) bucketValue(i int) float64 {
	idx := float64(i - h.offset)
	return 2 * math.Exp(idx*math.Log(h.gamma)) / (h.gamma + 1)
}

func (h *Histogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// Bins renders the sketch as an n-bin equal-width histogram over the
// exact [min, max] range — the same shape stats.Histogram produces from
// raw values, except each log bucket's count lands in the bin containing
// its representative value, so counts near bin edges can shift by one bin
// (bounded by the ±1% bucket width). Returns (nil, nil) when empty.
func (h *Histogram) Bins(n int) ([]int, []float64) {
	if h.count == 0 || n <= 0 {
		return nil, nil
	}
	lo, hi := h.min, h.max
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(n)
	edges := make([]float64, n+1)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	edges[n] = hi
	counts := make([]int, n)
	place := func(v float64, c uint64) {
		if c == 0 {
			return
		}
		i := int((h.clamp(v) - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		counts[i] += int(c)
	}
	place(0, h.zero)
	for i, c := range h.counts {
		place(h.bucketValue(i), c)
	}
	return counts, edges
}
