// Package engine provides the cycle-level simulation kernel: a clock, a
// registry of ticked components, and latency-modelled queues ("pipes") that
// connect components.
//
// The simulator is synchronous: on every cycle the engine calls Tick(now) on
// each registered component in registration order. Components exchange work
// through Pipes, which make an item visible to the consumer only after a fixed
// latency, and through bounded queues whose back-pressure models bandwidth
// limits. Because the tick order is fixed and all state changes happen inside
// ticks, simulations are fully deterministic.
package engine

import (
	"math"

	"masksim/internal/slab"
)

// Ticker is a component driven by the simulation clock once per cycle.
type Ticker interface {
	Tick(now int64)
}

// NoEvent is the horizon a purely reactive component returns from NextEvent:
// it will never change state on its own, only in response to inputs delivered
// by other components' ticks.
const NoEvent = int64(math.MaxInt64)

// EventSource is the optional quiescence capability of a Ticker. NextEvent
// returns the earliest future cycle at which the component can possibly
// change state on its own (pipe head arrival, DRAM response completion, a
// warp becoming issuable, a scheduled epoch boundary), NoEvent if it is
// purely reactive, or any value <= now if it must be ticked at now.
//
// The contract is asymmetric: a horizon may be conservatively EARLY (ticking
// a quiescent component is a no-op, so an early wakeup costs only speed) but
// must never be LATE — skipping a cycle on which the component would have
// acted changes results, and fast-forward promises bit-identity. See
// docs/MODEL.md for the full quiescence contract.
type EventSource interface {
	NextEvent(now int64) int64
}

// Skipper is the optional span-accounting capability of a Ticker. When the
// engine fast-forwards from cycle `from` to cycle `to`, it calls
// SkipTo(from, to) on every registered Skipper so counters that accrue per
// cycle (idle attribution, occupancy integrals, periodic samples) cover the
// skipped half-open span [from, to) exactly as if each cycle had been ticked.
// SkipTo must reproduce per-cycle bookkeeping only; it must not change any
// state that feeds other components (the engine only skips when every
// component is quiescent, so such changes would be contract violations).
type Skipper interface {
	SkipTo(from, to int64)
}

// Engine owns the simulation clock and the ordered set of components.
type Engine struct {
	// clock is the cycle and its tick/skip split: plain data, which a
	// checkpoint writes as it is (Clock).
	clock   ClockState
	tickers []Ticker

	// sources/skippers mirror tickers: sources[i] is tickers[i] if it
	// implements EventSource (nil otherwise), likewise skippers. allSources
	// tracks whether every registered ticker is an EventSource — fast-forward
	// is only sound when the whole system can report quiescence, so a single
	// opaque ticker disables it.
	sources    []EventSource
	skippers   []Skipper
	allSources bool

	fastForward bool

	// ckptEvery/ckptFn is the periodic checkpoint hook (SetCheckpointHook):
	// fn runs whenever the clock lands on a multiple of every at a
	// supervision boundary. Zero/nil when checkpointing is off.
	ckptEvery int64
	ckptFn    func(now int64)
}

// New returns an Engine at cycle 0 with no components.
func New() *Engine { return Renew(nil) }

// Renew is New built in place over a donor: e comes back at cycle 0 with no
// components and no hooks, keeping only its registration lists' capacity
// (docs/MODEL.md §11). A nil donor allocates.
func Renew(e *Engine) *Engine {
	e, d := slab.Lift(e)
	*e = Engine{
		tickers:    slab.Slice(d.tickers, 0),
		sources:    slab.Slice(d.sources, 0),
		skippers:   slab.Slice(d.skippers, 0),
		allSources: true,
	}
	return e
}

// Register appends t to the tick order. Registration order defines intra-cycle
// evaluation order and must therefore be identical across runs for
// reproducibility; the simulator wires components in a fixed order.
func (e *Engine) Register(t Ticker) {
	e.tickers = append(e.tickers, t)
	src, _ := t.(EventSource)
	skp, _ := t.(Skipper)
	e.sources = append(e.sources, src)
	e.skippers = append(e.skippers, skp)
	if src == nil {
		e.allSources = false
	}
}

// SetFastForward enables or disables next-event fast-forwarding. Even when
// enabled, the engine only skips if every registered ticker implements
// EventSource; results are bit-identical either way.
func (e *Engine) SetFastForward(on bool) {
	e.fastForward = on
}

// Now returns the current cycle.
func (e *Engine) Now() int64 {
	return e.clock.Now
}

// Ticked returns the number of cycles advanced by ticking every component.
func (e *Engine) Ticked() int64 {
	return e.clock.Ticked
}

// Skipped returns the number of cycles covered by fast-forward jumps.
func (e *Engine) Skipped() int64 {
	return e.clock.Skipped
}

// Step advances the simulation by one cycle, ticking every component.
func (e *Engine) Step() {
	for _, t := range e.tickers {
		t.Tick(e.clock.Now)
	}
	e.clock.Now++
	e.clock.Ticked++
}

// nextHorizon returns the cycle fast-forward may jump to, capped at limit:
// the minimum of every source's NextEvent, or e.clock.Now if any source needs the
// current cycle ticked. Callers only skip when the result is > e.clock.Now.
func (e *Engine) nextHorizon(limit int64) int64 {
	h := limit
	for _, s := range e.sources {
		ev := s.NextEvent(e.clock.Now)
		if ev <= e.clock.Now {
			return e.clock.Now
		}
		if ev < h {
			h = ev
		}
	}
	return h
}

// skipTo jumps the clock from e.clock.Now to cycle to (> e.clock.Now) without ticking,
// giving every Skipper the chance to account for the span [e.clock.Now, to).
func (e *Engine) skipTo(to int64) {
	for _, s := range e.skippers {
		if s != nil {
			s.SkipTo(e.clock.Now, to)
		}
	}
	e.clock.Skipped += to - e.clock.Now
	e.clock.Now = to
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now int64)

// Tick implements Ticker.
func (f TickFunc) Tick(now int64) { f(now) }
