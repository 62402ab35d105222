// Package metrics implements the multiprogramming metrics the paper reports:
// weighted speedup (system throughput), IPC throughput, and maximum-slowdown
// unfairness, plus the log-bucketed Histogram behind latency quantiles.
package metrics

import "math"

// WeightedSpeedup is the paper's primary throughput metric (Eyerman &
// Eeckhout): sum over apps of IPC_shared / IPC_alone.
//
// Contract: shared and alone must be non-empty and the same length, and every
// alone IPC must be positive — IPC_alone is the normalization baseline, so
// the metric is undefined otherwise and NaN is returned (it used to be
// silently computed over the valid subset, which misreported partial inputs
// as healthy results). A zero shared IPC is well-defined: that app simply
// contributes zero speedup.
func WeightedSpeedup(shared, alone []float64) float64 {
	if len(shared) == 0 || len(shared) != len(alone) {
		return math.NaN()
	}
	ws := 0.0
	for i := range shared {
		if alone[i] <= 0 {
			return math.NaN()
		}
		ws += shared[i] / alone[i]
	}
	return ws
}

// IPCThroughput is the plain sum of shared IPCs (the paper's "IPC
// throughput", §7.1).
func IPCThroughput(shared []float64) float64 {
	t := 0.0
	for _, v := range shared {
		t += v
	}
	return t
}

// MaxSlowdown is the paper's unfairness metric: max over apps of
// IPC_alone / IPC_shared. Lower is better; 1.0 is perfectly fair sharing
// with no slowdown.
//
// Contract: shared and alone must be non-empty and the same length, and every
// alone IPC must be positive; otherwise the metric is undefined and NaN is
// returned. An app with zero shared IPC was slowed down without bound, so its
// slowdown — and therefore the maximum — is +Inf, not a silently skipped
// entry.
func MaxSlowdown(shared, alone []float64) float64 {
	if len(shared) == 0 || len(shared) != len(alone) {
		return math.NaN()
	}
	worst := 0.0
	for i := range shared {
		if alone[i] <= 0 {
			return math.NaN()
		}
		if shared[i] <= 0 {
			return math.Inf(1)
		}
		if s := alone[i] / shared[i]; s > worst {
			worst = s
		}
	}
	return worst
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
