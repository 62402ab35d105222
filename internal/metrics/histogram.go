package metrics

import (
	"math"
	"math/bits"
)

// histSubBits is log2 of the number of sub-buckets per power-of-two octave.
// Eight sub-buckets bound the relative quantile error at 1/8 = 12.5%.
const histSubBits = 3

const histSubCount = 1 << histSubBits

// histBuckets covers every uint64 value: histSubCount exact buckets for
// values < histSubCount, then histSubCount buckets per octave up to 2^64.
const histBuckets = histSubCount + (64-histSubBits)*histSubCount

// Histogram is a log-bucketed histogram for non-negative samples (latencies,
// queue depths, ...). Values are bucketed by their power-of-two octave with
// histSubCount sub-buckets per octave, so Observe is two shifts and an add —
// no allocation, no map — and quantiles resolve within 12.5% relative error.
// The sample count, Min and Max are tracked exactly. The zero value is an
// empty histogram. A checkpoint writes the buckets and extremes as they are;
// the count is their sum, which SetState recomputes.
type Histogram struct {
	Counts [histBuckets]uint64
	Min    float64
	Max    float64
	count  uint64
}

// SetState restores a histogram written by a checkpoint: its buckets and
// extremes, with the sample count recounted from the buckets.
func (h *Histogram) SetState(img Histogram) {
	*h = img
	h.count = 0
	for _, n := range h.Counts {
		h.count += n
	}
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return new(Histogram) }

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the highest set bit, >= histSubBits
	sub := int(v>>(uint(exp)-histSubBits)) - histSubCount
	return histSubCount + (exp-histSubBits)*histSubCount + sub
}

// bucketBounds returns the inclusive lower and exclusive upper value bound of
// bucket idx.
func bucketBounds(idx int) (lo, hi float64) {
	if idx < histSubCount {
		return float64(idx), float64(idx + 1)
	}
	exp := (idx - histSubCount) / histSubCount
	sub := (idx - histSubCount) % histSubCount
	base := uint64(histSubCount+sub) << uint(exp)
	width := uint64(1) << uint(exp)
	return float64(base), float64(base + width)
}

// Observe records one sample. Negative values clamp to zero; non-integral
// values are truncated for bucketing, and Min and Max keep them exactly.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	if h.count == 0 || v < h.Min {
		h.Min = v
	}
	if h.count == 0 || v > h.Max {
		h.Max = v
	}
	h.count++
	h.Counts[bucketOf(uint64(v))]++
}

// Quantile returns the approximate q-quantile (q in [0,1]) by locating the
// bucket holding the rank-q sample and interpolating linearly inside it. The
// result is clamped to the exact [Min, Max] envelope, so Quantile(0) and
// Quantile(1) are exact. Returns NaN when the histogram is empty or q is out
// of range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := q * float64(h.count-1)
	var seen float64
	for idx, n := range h.Counts {
		if n == 0 {
			continue
		}
		if rank < seen+float64(n) {
			lo, hi := bucketBounds(idx)
			// Position of the target rank within this bucket, in [0,1).
			frac := (rank - seen) / float64(n)
			v := lo + frac*(hi-lo)
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
		seen += float64(n)
	}
	return h.Max
}
