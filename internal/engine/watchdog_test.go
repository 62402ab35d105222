package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// stallingTicker makes progress until a cutoff cycle, then wedges.
type stallingTicker struct {
	stopAt int64
	work   uint64
}

func (t *stallingTicker) Tick(now int64) {
	if t.stopAt < 0 || now < t.stopAt {
		t.work++
	}
}

// sinkEvent records one Emit call for assertion.
type sinkEvent struct {
	now             int64
	name, component string
	args            map[string]string
}

// fakeSink is a test EventSink.
type fakeSink struct{ events []sinkEvent }

func (s *fakeSink) Emit(now int64, name, component string, args map[string]string) {
	s.events = append(s.events, sinkEvent{now: now, name: name, component: component, args: args})
}

func TestWatchdogDetectsStall(t *testing.T) {
	e := New()
	tk := &stallingTicker{stopAt: 500}
	e.Register(tk)
	wd := NewWatchdog(100, 3)
	wd.Observe(func() uint64 { return tk.work })
	wd.Diagnose("ticker", func() string { return "queue=7 inflight=0" })
	sink := &fakeSink{}
	wd.SetEventSink(sink)

	err := e.RunContext(context.Background(), 100_000, wd)
	if err == nil {
		t.Fatal("wedged run completed without abort")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %T, want *DeadlockError: %v", err, err)
	}
	// Progress stops at cycle 500; the stall is confirmed after three more
	// empty check windows.
	if de.Cycle < 500 || de.Cycle > 1200 {
		t.Fatalf("abort at cycle %d, want shortly after the stall at 500", de.Cycle)
	}
	if de.StallCycles != 300 {
		t.Fatalf("stall window %d, want 300", de.StallCycles)
	}
	if !strings.Contains(err.Error(), "ticker: queue=7 inflight=0") {
		t.Fatalf("diagnostic dump missing component state: %v", err)
	}
	if e.Now() != de.Cycle {
		t.Fatalf("engine stopped at %d but error reports %d", e.Now(), de.Cycle)
	}

	// The abort must also surface as one structured instant event whose
	// fields mirror the dump, so exported traces show the abort in place.
	if len(sink.events) != 1 {
		t.Fatalf("sink saw %d events, want exactly 1 abort event", len(sink.events))
	}
	ev := sink.events[0]
	if ev.name != "watchdog.abort" || ev.component != "engine" {
		t.Fatalf("event = %s/%s, want watchdog.abort/engine", ev.name, ev.component)
	}
	if ev.now != de.Cycle {
		t.Fatalf("event at cycle %d, error at %d", ev.now, de.Cycle)
	}
	if got := ev.args["cycle"]; got != fmt.Sprintf("%d", de.Cycle) {
		t.Fatalf("args[cycle] = %q, want %d", got, de.Cycle)
	}
	if got := ev.args["stall_cycles"]; got != "300" {
		t.Fatalf("args[stall_cycles] = %q, want 300", got)
	}
	if got := ev.args["ticker"]; got != "queue=7 inflight=0" {
		t.Fatalf("args[ticker] = %q, want the component snapshot", got)
	}
}

func TestWatchdogToleratesSlowProgress(t *testing.T) {
	e := New()
	var work uint64
	// One unit of progress every 250 cycles: slower than the check interval,
	// but never silent for StallChecks consecutive checks.
	e.Register(TickFunc(func(now int64) {
		if now%250 == 0 {
			work++
		}
	}))
	wd := NewWatchdog(100, 3)
	wd.Observe(func() uint64 { return work })
	if err := e.RunContext(context.Background(), 10_000, wd); err != nil {
		t.Fatalf("slow but live run aborted: %v", err)
	}
	if e.Now() != 10_000 {
		t.Fatalf("ran %d cycles, want 10000", e.Now())
	}
}

func TestRunContextCancellation(t *testing.T) {
	e := New()
	e.Register(TickFunc(func(int64) {}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunContext(ctx, 1_000_000, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if e.Now() != 0 {
		t.Fatalf("pre-canceled run advanced to cycle %d", e.Now())
	}
}

func TestRunContextDeadline(t *testing.T) {
	e := New()
	e.Register(TickFunc(func(int64) { time.Sleep(10 * time.Microsecond) }))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := e.RunContext(ctx, 1<<40, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
	if e.Now() == 0 {
		t.Fatal("deadline fired before any cycle ran")
	}
}

func TestRunContextCompletesWithoutSupervision(t *testing.T) {
	e := New()
	e.Register(TickFunc(func(int64) {}))
	if err := e.RunContext(nil, 5000, nil); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5000 {
		t.Fatalf("ran %d cycles, want 5000", e.Now())
	}
}
