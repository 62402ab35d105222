package engine

import (
	"context"
	"errors"
	"testing"
)

// scripted is a test component with a fixed list of cycles at which it acts.
// It implements EventSource (next scheduled cycle) and Skipper (records the
// spans it was asked to account for).
type scripted struct {
	events   []int64 // sorted cycles at which the component acts
	ticks    []int64 // cycles Tick was actually called
	spans    [][2]int64
	progress uint64
}

func (s *scripted) Tick(now int64) {
	s.ticks = append(s.ticks, now)
	for _, ev := range s.events {
		if ev == now {
			s.progress++
		}
	}
}

func (s *scripted) NextEvent(now int64) int64 {
	for _, ev := range s.events {
		if ev >= now {
			return ev
		}
	}
	return NoEvent
}

func (s *scripted) SkipTo(from, to int64) {
	s.spans = append(s.spans, [2]int64{from, to})
}

func TestFastForwardSkipsQuiescentSpans(t *testing.T) {
	e := New()
	e.SetFastForward(true)
	c := &scripted{events: []int64{3, 10}}
	e.Register(c)
	run(e, 20)

	if e.Now() != 20 {
		t.Fatalf("Now=%d, want 20", e.Now())
	}
	if got, want := e.Ticked(), int64(2); got != want {
		t.Errorf("Ticked=%d, want %d", got, want)
	}
	if got, want := e.Skipped(), int64(18); got != want {
		t.Errorf("Skipped=%d, want %d", got, want)
	}
	wantTicks := []int64{3, 10}
	if len(c.ticks) != len(wantTicks) {
		t.Fatalf("ticked at %v, want %v", c.ticks, wantTicks)
	}
	for i, w := range wantTicks {
		if c.ticks[i] != w {
			t.Fatalf("ticked at %v, want %v", c.ticks, wantTicks)
		}
	}
	// Spans plus ticks must tile [0, 20) exactly, in order.
	wantSpans := [][2]int64{{0, 3}, {4, 10}, {11, 20}}
	if len(c.spans) != len(wantSpans) {
		t.Fatalf("spans %v, want %v", c.spans, wantSpans)
	}
	for i, w := range wantSpans {
		if c.spans[i] != w {
			t.Fatalf("spans %v, want %v", c.spans, wantSpans)
		}
	}
}

func TestFastForwardOffByDefault(t *testing.T) {
	e := New()
	c := &scripted{events: []int64{3}}
	e.Register(c)
	run(e, 10)
	if e.Ticked() != 10 || e.Skipped() != 0 {
		t.Fatalf("Ticked=%d Skipped=%d, want 10/0 without SetFastForward", e.Ticked(), e.Skipped())
	}
}

func TestFastForwardDisabledByOpaqueTicker(t *testing.T) {
	e := New()
	e.SetFastForward(true)
	e.Register(&scripted{events: []int64{3}})
	// A plain TickFunc cannot report quiescence, so the engine must never skip.
	e.Register(TickFunc(func(now int64) {}))
	run(e, 10)
	if e.Ticked() != 10 || e.Skipped() != 0 {
		t.Fatalf("Ticked=%d Skipped=%d, want 10/0 with an opaque ticker registered", e.Ticked(), e.Skipped())
	}
}

// TestFastForwardWatchdogSameAbortCycle pins the satellite-2 contract: a
// fully quiescent (wedged) system must not let fast-forward leap past
// watchdog checkpoints — the abort fires at exactly the cycle a
// single-stepped run aborts at.
func TestFastForwardWatchdogSameAbortCycle(t *testing.T) {
	abortCycle := func(ff bool) int64 {
		e := New()
		e.SetFastForward(ff)
		c := &scripted{} // no events: permanently quiescent, no progress
		e.Register(c)
		wd := NewWatchdog(100, 2)
		wd.Observe(func() uint64 { return c.progress })
		err := e.RunContext(context.Background(), 1_000, wd)
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("ff=%v: err = %v, want *DeadlockError", ff, err)
		}
		return de.Cycle
	}
	slow, fast := abortCycle(false), abortCycle(true)
	if slow != fast {
		t.Fatalf("abort cycle: single-stepped=%d fast-forwarded=%d", slow, fast)
	}
}

// TestFastForwardWatchdogHealthy checks the dual hazard: checkpoint-capped
// skips must not read as stalls when the system is genuinely progressing at
// every event.
func TestFastForwardWatchdogHealthy(t *testing.T) {
	e := New()
	e.SetFastForward(true)
	events := make([]int64, 0, 20)
	for cy := int64(30); cy < 1_000; cy += 50 {
		events = append(events, cy)
	}
	c := &scripted{events: events}
	e.Register(c)
	wd := NewWatchdog(100, 2)
	wd.Observe(func() uint64 { return c.progress })
	if err := e.RunContext(context.Background(), 1_000, wd); err != nil {
		t.Fatalf("healthy fast-forwarded run aborted: %v", err)
	}
	if e.Skipped() == 0 {
		t.Fatal("run never skipped; watchdog interaction untested")
	}
	if e.Now() != 1_000 {
		t.Fatalf("Now=%d, want 1000", e.Now())
	}
}
