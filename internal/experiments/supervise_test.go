package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"masksim/internal/faultinject"
	"masksim/internal/workload"
	"masksim/sim"
)

func tinyCfg(name string) sim.Config {
	c := sim.SharedTLBConfig()
	c.Name = name
	c.Cores = 4
	c.WarpsPerCore = 8
	return c
}

// TestMatrixSurvivesPanickingCell injects a panic into one configuration and
// checks that the worker pool isolates it: the campaign completes, the bad
// cells are marked failed after one retry, and means cover the survivors.
func TestMatrixSurvivesPanickingCell(t *testing.T) {
	good := tinyCfg("good")
	bad := tinyCfg("bad")
	bad.FaultPlan = &faultinject.Plan{PanicAtCycle: 300}

	h := NewHarness(1200)
	pairs := []workload.Pair{{A: "NN", B: "LUD"}}
	m, err := h.RunMatrix(tinyCfg("alone"), []sim.Config{good, bad}, pairs)
	if err != nil {
		t.Fatalf("campaign died instead of isolating the panic: %v", err)
	}

	c := m.Cell(pairs[0], "bad")
	if c.OK() {
		t.Fatal("panicking cell not marked failed")
	}
	if !strings.Contains(c.Err.Error(), "injected panic") {
		t.Fatalf("cell error does not carry the panic: %v", c.Err)
	}
	if c.Attempts != 2 {
		t.Fatalf("panic retried %d time(s), want 1 retry (2 attempts)", c.Attempts-1)
	}
	if !m.Cell(pairs[0], "good").OK() {
		t.Fatal("healthy cell infected by neighbouring panic")
	}
	if ws := m.MeanWS("good", nil); ws <= 0 {
		t.Fatalf("mean WS over surviving cells = %v, want > 0", ws)
	}

	st := h.Stats()
	if st.Failed == 0 || st.Retried == 0 {
		t.Fatalf("stats do not record the failure/retry: %+v", st)
	}
	if st.Completed == 0 {
		t.Fatalf("stats record no completed runs: %+v", st)
	}
	if len(h.Failures()) == 0 {
		t.Fatal("failure list is empty")
	}
}

// TestMatrixSurvivesWedgedCell is the issue's acceptance test: one
// configuration wedges a page-table walk, the watchdog detects the stall and
// aborts that run with diagnostics, and the enclosing RunMatrix campaign
// still completes and reports means over the surviving cells.
func TestMatrixSurvivesWedgedCell(t *testing.T) {
	good := tinyCfg("good")
	wedged := tinyCfg("wedged")
	wedged.WatchdogCheckEvery = 500
	wedged.FaultPlan = &faultinject.Plan{WedgePTWAfter: 100}

	h := NewHarness(2_000_000)
	h.AloneCycles = 1200
	pairs := []workload.Pair{{A: "3DS", B: "CONS"}}
	m, err := h.RunMatrix(tinyCfg("alone"), []sim.Config{good, wedged}, pairs)
	if err != nil {
		t.Fatalf("campaign died instead of isolating the wedged run: %v", err)
	}

	c := m.Cell(pairs[0], "wedged")
	if c.OK() {
		t.Fatal("wedged cell not marked failed")
	}
	if !strings.Contains(c.Err.Error(), "no progress") {
		t.Fatalf("cell error is not the watchdog diagnostic: %v", c.Err)
	}
	if c.Results == nil || !c.Results.Aborted {
		t.Fatal("wedged cell carries no aborted partial results")
	}
	if !m.Cell(pairs[0], "good").OK() {
		t.Fatal("healthy cell failed alongside the wedged one")
	}
	if ws := m.MeanWS("good", nil); ws <= 0 {
		t.Fatalf("mean WS over surviving cells = %v, want > 0", ws)
	}
	if len(m.Failed()) == 0 {
		t.Fatal("matrix reports no failures")
	}

	st := h.Stats()
	if st.Aborted == 0 {
		t.Fatalf("stats do not count the watchdog abort: %+v", st)
	}
}

// TestParallelRejectsNegativeWorkers pins the Workers validation satellite.
func TestParallelRejectsNegativeWorkers(t *testing.T) {
	h := NewHarness(100)
	h.Workers = -3
	if err := h.parallel(1, func(int) error { return nil }); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestRecyclerDropsPoisonedSimulator runs poisoned and clean cells alternately
// on one worker, so every cell is built over whatever the one before it left
// in the recycler. A cell that panics (both attempts), trips the watchdog or
// runs out of time must leave nothing there, and the clean cell after it must
// match a simulation that never saw a recycler.
func TestRecyclerDropsPoisonedSimulator(t *testing.T) {
	const cycles = 1500
	names := []string{"3DS", "CONS"}
	clean := tinyCfg("clean")
	want, err := sim.Run(context.Background(), clean, names, cycles)
	if err != nil {
		t.Fatal(err)
	}

	panics := tinyCfg("panics")
	panics.FaultPlan = &faultinject.Plan{PanicAtCycle: 300}
	wedged := tinyCfg("wedged")
	wedged.WatchdogCheckEvery = 200
	wedged.FaultPlan = &faultinject.Plan{WedgePTWAfter: 100}

	h := NewHarness(cycles)
	h.Workers = 1
	h.Cache = nil // every request simulates
	runClean := func(after string) {
		t.Helper()
		got, err := h.Run(clean, names)
		if err != nil {
			t.Fatalf("clean cell after %s: %v", after, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("clean cell after %s differs from a fresh run:\nfresh: %+v\ncell:  %+v", after, want, got)
		}
		if n := h.recycler.Len(); n != 1 {
			t.Fatalf("recycler holds %d simulators after a clean cell, want 1", n)
		}
	}
	runPoisoned := func(what string, cfg sim.Config, wantErr string) {
		t.Helper()
		_, err := h.Run(cfg, names)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s cell: error %v, want one containing %q", what, err, wantErr)
		}
		if n := h.recycler.Len(); n != 0 {
			t.Fatalf("recycler holds %d simulators after a %s cell, want 0", n, what)
		}
	}

	runClean("nothing")
	runPoisoned("panicking", panics, "injected panic")
	runClean("a panic")
	runPoisoned("wedged", wedged, "no progress")
	runClean("a watchdog abort")
	h.RunTimeout = time.Nanosecond
	runPoisoned("timed-out", clean, "deadline exceeded")
	h.RunTimeout = 0
	runClean("a timeout")
	// The clean cells in between went back and came out again.
	runClean("a clean cell")
}
