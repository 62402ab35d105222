package metrics

import (
	"math"
	"testing"
)

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below histSubCount land in exact unit buckets, so every
	// quantile of {0..7} is exact.
	h := NewHistogram()
	for v := 0; v < 8; v++ {
		h.Observe(float64(v))
	}
	if h.count != 8 {
		t.Fatalf("count=%d, want 8", h.count)
	}
	if h.min != 0 || h.max != 7 {
		t.Fatalf("min/max = %v/%v, want 0/7", h.min, h.max)
	}
	for v := 0; v < 8; v++ {
		q := float64(v) / 7
		got := h.Quantile(q)
		if math.Abs(got-float64(v)) > 1 {
			t.Fatalf("quantile(%v)=%v, want ~%d", q, got, v)
		}
	}
}

func TestHistogramUniformQuantiles(t *testing.T) {
	// Uniform 1..10000: quantiles must land within the 12.5% relative
	// bucket error of the true value.
	h := NewHistogram()
	for v := 1; v <= 10000; v++ {
		h.Observe(float64(v))
	}
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		want := q * 10000
		got := h.Quantile(q)
		if relerr := math.Abs(got-want) / want; relerr > 0.125 {
			t.Errorf("quantile(%v)=%v, want %v±12.5%% (err %.1f%%)", q, got, want, 100*relerr)
		}
	}
	// The envelope quantiles are exact.
	if h.Quantile(0) != 1 {
		t.Errorf("p0=%v, want 1", h.Quantile(0))
	}
	if h.Quantile(1) != 10000 {
		t.Errorf("p100=%v, want 10000", h.Quantile(1))
	}
}

func TestHistogramBimodal(t *testing.T) {
	// 90% fast (≈20 cycles), 10% slow (≈5000 cycles) — the PTW-latency
	// shape under contention. The p50 must sit in the fast mode and the
	// p99 in the slow mode.
	h := NewHistogram()
	for i := 0; i < 900; i++ {
		h.Observe(20)
	}
	for i := 0; i < 100; i++ {
		h.Observe(5000)
	}
	if p50 := h.Quantile(0.5); p50 < 15 || p50 > 25 {
		t.Errorf("p50=%v, want ~20", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 4096 || p99 > 5000 {
		t.Errorf("p99=%v, want in the slow mode (4096..5000)", p99)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Observe(137)
	for _, q := range []float64{0, 0.5, 1} {
		if v := h.Quantile(q); v != 137 {
			t.Fatalf("quantile(%v)=%v, want 137 (min/max clamp)", q, v)
		}
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	h := NewHistogram()
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram must report NaN")
	}
	h.Observe(42)
	h.SetState(NewHistogram().State())
	if h.count != 0 || !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("reset histogram not empty: count=%d", h.count)
	}
	// Out-of-range and NaN q.
	h.Observe(1)
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.1)) || !math.IsNaN(h.Quantile(math.NaN())) {
		t.Fatal("out-of-range quantile must be NaN")
	}
	// Negative and NaN observations clamp to zero rather than corrupting
	// buckets.
	h.Observe(-5)
	h.Observe(math.NaN())
	if h.min != 0 {
		t.Fatalf("min=%v, want 0 after clamped observations", h.min)
	}
}

func TestHistogramBucketBoundsRoundTrip(t *testing.T) {
	// Every value must fall inside the bounds of its own bucket.
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		idx := bucketOf(v)
		lo, hi := bucketBounds(idx)
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d bucketed to [%v,%v)", v, lo, hi)
		}
	}
}
