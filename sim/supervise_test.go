package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"masksim/internal/engine"
	"masksim/internal/faultinject"
)

// TestWatchdogAbortsWedgedWalk is the acceptance test for the deadlock
// watchdog: a fault-injected wedged PTW walk eventually starves every core
// (all warps pile up behind the held walker slot), the watchdog detects the
// lack of forward progress within its cycle budget, and the run aborts with
// a structured diagnostic dump while still returning partial results.
func TestWatchdogAbortsWedgedWalk(t *testing.T) {
	cfg := tinyConfig()
	cfg.WatchdogCheckEvery = 2_000
	cfg.FaultPlan = &faultinject.Plan{WedgePTWAfter: 200}

	const budget = 2_000_000
	res, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, budget)
	if err == nil {
		t.Fatal("wedged run completed without error")
	}
	var de *engine.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T (%v), want *engine.DeadlockError", err, err)
	}
	if de.Cycle >= budget {
		t.Fatalf("watchdog fired at cycle %d, not within budget %d", de.Cycle, budget)
	}
	if len(de.Dump) == 0 {
		t.Fatal("deadlock diagnostic dump is empty")
	}
	if !strings.Contains(err.Error(), "walker") {
		t.Fatalf("dump does not mention the walker:\n%v", err)
	}
	if res == nil {
		t.Fatal("aborted run returned no partial results")
	}
	if !res.Aborted || res.AbortReason == "" {
		t.Fatalf("partial results not marked aborted: %+v", res)
	}
	if res.Cycles >= budget {
		t.Fatalf("partial results claim %d cycles, want < %d", res.Cycles, budget)
	}
	var instrs uint64
	for _, a := range res.Apps {
		instrs += a.Instructions
	}
	if instrs == 0 {
		t.Fatal("no progress before the wedge; partial results carry nothing")
	}
	if cfg.FaultPlan.WedgedWalks == 0 {
		t.Fatal("fault plan never wedged a walk")
	}
}

// TestWatchdogAbortsDroppedDRAM wedges the machine a different way: every
// DRAM response past a threshold is dropped, so requests never complete and
// the cores eventually stall on memory.
func TestWatchdogAbortsDroppedDRAM(t *testing.T) {
	cfg := tinyConfig()
	cfg.WatchdogCheckEvery = 2_000
	cfg.FaultPlan = &faultinject.Plan{DropDRAMOneIn: 1, DropDRAMAfter: 100}

	res, err := Run(context.Background(), cfg, []string{"MM", "CONS"}, 2_000_000)
	var de *engine.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T (%v), want *engine.DeadlockError", err, err)
	}
	if res == nil || !res.Aborted {
		t.Fatal("no aborted partial results")
	}
	if cfg.FaultPlan.DroppedResponses == 0 {
		t.Fatal("fault plan never dropped a response")
	}
}

// TestRunContextDeadline bounds a healthy run by wall-clock time and checks
// that partial results come back with the context's error.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, tinyConfig(), []string{"3DS", "CONS"}, 1_000_000_000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || !res.Aborted {
		t.Fatal("deadline abort did not return partial results")
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated before the deadline")
	}
}

// TestRunPreCanceledContext verifies that an already-canceled context stops
// the run before it starts ticking.
func TestRunPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, tinyConfig(), []string{"3DS", "CONS"}, 10_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil && res.Cycles > 0 {
		t.Fatalf("pre-canceled run still simulated %d cycles", res.Cycles)
	}
}

// TestHealthyRunPassesWatchdog makes sure the default watchdog thresholds do
// not false-positive on an ordinary contended run.
func TestHealthyRunPassesWatchdog(t *testing.T) {
	cfg := tinyConfig()
	cfg.WatchdogCheckEvery = 1_000
	res, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, 20_000)
	if err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
	if res.Aborted {
		t.Fatal("healthy run marked aborted")
	}
}

// TestAbortedResultsRenderReason checks the Results printout surfaces the
// abort so partial numbers cannot be mistaken for a completed run.
func TestAbortedResultsRenderReason(t *testing.T) {
	cfg := tinyConfig()
	cfg.WatchdogCheckEvery = 2_000
	cfg.FaultPlan = &faultinject.Plan{WedgePTWAfter: 200}
	res, err := Run(context.Background(), cfg, []string{"3DS", "CONS"}, 2_000_000)
	if err == nil {
		t.Fatal("expected abort")
	}
	out := res.String()
	if !strings.Contains(out, "ABORTED") {
		t.Fatalf("results printout hides the abort:\n%s", out)
	}
}
