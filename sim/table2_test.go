package sim

import (
	"context"
	"testing"

	"masksim/internal/workload"
)

// TestTable2Behaviour validates the workload calibration end-to-end: every
// benchmark, run alone on the full Table 1 machine, must land in its
// declared Table 2 quadrant. Thresholds are deliberately loose (the paper
// splits classes at 20%); this is a tripwire for calibration regressions,
// not a precision check.
func TestTable2Behaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 30 benchmarks on the full machine")
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := workload.MustByName(name)
			// Low-miss benchmarks have slow L1-TLB turnover, so their
			// steady-state rates need a longer warmup than the rest.
			cycles := int64(20_000)
			if p.L1Class == workload.Low && p.L2Class == workload.Low {
				cycles = 50_000
			}
			res, err := RunAlone(context.Background(), SharedTLBConfig(), name, 30, cycles)
			if err != nil {
				t.Fatal(err)
			}
			l1 := res.Apps[0].L1TLB.MissRate()
			l2 := res.Apps[0].L2TLB.MissRate()
			if p.L1Class == workload.Low && l1 > 0.30 {
				t.Errorf("L1 miss %.1f%% too high for a low-L1 benchmark", 100*l1)
			}
			if p.L1Class == workload.High && l1 < 0.15 {
				t.Errorf("L1 miss %.1f%% too low for a high-L1 benchmark", 100*l1)
			}
			if p.L2Class == workload.Low && l2 > 0.55 {
				t.Errorf("L2 miss %.1f%% too high for a low-L2 benchmark", 100*l2)
			}
			if p.L2Class == workload.High && l2 < 0.45 {
				t.Errorf("L2 miss %.1f%% too low for a high-L2 benchmark", 100*l2)
			}
		})
	}
}
