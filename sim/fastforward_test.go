package sim

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"masksim/internal/engine"
	"masksim/internal/faultinject"
)

// pagingScenario is not a drift scenario, but the deepest fast-forward
// exerciser: demand paging drains the whole machine for tens of thousands of
// cycles per major fault, so most of the run is skipped (and the FaultUnit's
// own horizon is on the critical path).
var pagingScenario = scenario{name: "paging-MUM+GUP", cfg: func() Config {
	cfg := SharedTLBConfig()
	cfg.DemandPaging = true
	return cfg
}, names: []string{"MUM", "GUP"}, cycles: 20_000}

// TestFastForwardEquivalence is the tentpole acceptance test: for every drift
// scenario, a fast-forwarded run must be bit-identical to the single-stepped
// run — same fingerprint, same full Results modulo the tick/skip split — and
// fast-forward must actually skip cycles somewhere (otherwise this test would
// vacuously compare the slow path against itself).
func TestFastForwardEquivalence(t *testing.T) {
	var totalSkipped int64
	for _, sc := range slices.Concat(driftScenarios, []scenario{pagingScenario}) {
		t.Run(sc.name, func(t *testing.T) {
			slow, fast := uninterruptedRun(t, sc, false), uninterruptedRun(t, sc, true)

			if slow.CyclesSkipped != 0 {
				t.Errorf("FF-off run skipped %d cycles", slow.CyclesSkipped)
			}
			if got := fast.CyclesTicked + fast.CyclesSkipped; got != fast.Cycles {
				t.Errorf("ticked+skipped = %d, want Cycles = %d", got, fast.Cycles)
			}
			totalSkipped += fast.CyclesSkipped

			if sf, ff := driftFingerprint(slow), driftFingerprint(fast); sf != ff {
				t.Errorf("fingerprints diverge:\n%s", diffLines(sf, ff))
			}
			// Full structural equality beyond the fingerprint's counter list.
			// The tick/skip split is the one field pair allowed to differ.
			a, b := *slow, *fast
			a.CyclesTicked, a.CyclesSkipped = 0, 0
			b.CyclesTicked, b.CyclesSkipped = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("Results structs differ beyond the tick/skip split:\nslow: %+v\nfast: %+v", a, b)
			}
		})
	}
	if totalSkipped == 0 {
		t.Error("fast-forward never skipped a cycle in any scenario; equivalence check is vacuous")
	}
}

// TestFastForwardWatchdogWedge checks the watchdog under clock jumps: a
// wedged PTW leaves every component quiescent, so without checkpoint capping
// the engine would leap straight to the end of the run and mask the wedge.
// The abort must fire at exactly the same cycle as in a single-stepped run.
func TestFastForwardWatchdogWedge(t *testing.T) {
	run := func(ff bool) (*Results, *engine.DeadlockError) {
		cfg := tinyConfig()
		cfg.FastForward = ff
		cfg.WatchdogCheckEvery = 2_000
		cfg.FaultPlan = &faultinject.Plan{WedgePTWAfter: 200}
		res, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, 2_000_000)
		if err == nil {
			t.Fatalf("wedged run (ff=%v) completed without error", ff)
		}
		var de *engine.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("error is %T (%v), want *engine.DeadlockError", err, err)
		}
		return res, de
	}

	slowRes, slowDe := run(false)
	fastRes, fastDe := run(true)

	if fastDe.Cycle != slowDe.Cycle {
		t.Errorf("watchdog abort cycle: ff=%d, no-ff=%d", fastDe.Cycle, slowDe.Cycle)
	}
	if fastRes.Cycles != slowRes.Cycles {
		t.Errorf("partial results length: ff=%d, no-ff=%d", fastRes.Cycles, slowRes.Cycles)
	}
	if sf, ff := driftFingerprint(slowRes), driftFingerprint(fastRes); sf != ff {
		t.Errorf("partial-result fingerprints diverge:\n%s", diffLines(sf, ff))
	}
	if !fastRes.Aborted {
		t.Error("fast-forwarded wedge not marked aborted")
	}
}

// TestFastForwardHealthyWatchdog makes sure fast-forward jumps over a
// watchdog checkpoint do not read as stalls: a healthy run whose quiescent
// spans exceed WatchdogCheckEvery must still complete. The aggressive
// checkpoint interval guarantees skips actually cross checkpoints.
func TestFastForwardHealthyWatchdog(t *testing.T) {
	cfg := tinyConfig()
	cfg.WatchdogCheckEvery = 100
	res, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, 20_000)
	if err != nil {
		t.Fatalf("healthy fast-forwarded run tripped the watchdog: %v", err)
	}
	if res.Aborted {
		t.Fatal("healthy fast-forwarded run marked aborted")
	}
}

// TestFastForwardTelemetryEquivalence covers the epoch sampler under
// non-unit time advancement: every epoch-boundary sample that falls inside a
// skipped span must still appear, at the same cycle with the same values, and
// the Finish totals must telescope identically.
func TestFastForwardTelemetryEquivalence(t *testing.T) {
	run := func(ff bool) *Results {
		// Demand paging produces multi-thousand-cycle quiescent spans, so
		// epoch boundaries land inside skipped stretches — exactly the case
		// the Collector's NextEvent horizon must force ticks for.
		cfg := SharedTLBConfig()
		cfg.FastForward = ff
		cfg.DemandPaging = true
		cfg.TelemetryEpoch = 500
		res, err := Run(context.Background(), cfg, []string{"MUM", "GUP"}, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	slow, fast := run(false), run(true)
	if slow.Telemetry == nil || fast.Telemetry == nil {
		t.Fatal("telemetry missing from one of the runs")
	}
	if len(fast.Telemetry.Samples) != len(slow.Telemetry.Samples) {
		t.Fatalf("sample counts differ: ff=%d, no-ff=%d",
			len(fast.Telemetry.Samples), len(slow.Telemetry.Samples))
	}
	for i, want := range slow.Telemetry.Samples {
		got := fast.Telemetry.Samples[i]
		if got.Cycle != want.Cycle {
			t.Fatalf("sample %d at cycle %d, want %d", i, got.Cycle, want.Cycle)
		}
		if !reflect.DeepEqual(got.Values, want.Values) {
			t.Errorf("sample %d (cycle %d) values differ:\nff:    %v\nno-ff: %v",
				i, got.Cycle, got.Values, want.Values)
		}
	}
	if !reflect.DeepEqual(fast.Telemetry.Columns, slow.Telemetry.Columns) {
		t.Error("telemetry columns differ between ff and no-ff runs")
	}
	if fast.CyclesSkipped == 0 {
		t.Error("telemetry scenario never skipped; equivalence check is vacuous")
	}
}
