package engine

import (
	"context"
	"fmt"
	"strings"
)

// ProgressFn reports a monotonically non-decreasing count of useful work
// (instructions retired, walks completed, DRAM requests serviced, ...). The
// watchdog sums every registered probe; a run is making progress as long as
// the sum keeps moving.
type ProgressFn func() uint64

// DiagFn renders a one-line snapshot of one component's state (queue
// occupancies, in-flight work) for the abort dump.
type DiagFn func() string

// EventSink receives instant events from the engine's supervision machinery;
// telemetry.Collector implements it. The watchdog emits a structured
// "watchdog.abort" event (one arg per diagnosed component, plus cycle and
// stall window) alongside its DeadlockError, so aborts are visible in
// exported traces, not just in the error string.
type EventSink interface {
	Emit(now int64, name, component string, args map[string]string)
}

// Watchdog detects livelock and deadlock in a running simulation: if no
// registered progress probe advances for StallChecks consecutive checks
// (CheckEvery cycles apart), the run is aborted with a DeadlockError carrying
// a structured per-component diagnostic dump.
//
// A Watchdog supervises a single run; build a fresh one per Engine run.
type Watchdog struct {
	// CheckEvery is the progress-check interval in cycles (must be > 0).
	CheckEvery int64
	// StallChecks is the number of consecutive no-progress checks tolerated
	// before the run is declared wedged.
	StallChecks int

	progress []ProgressFn
	diags    []watchdogDiag
	sink     EventSink

	// state is the progress tracking a checkpoint writes as it is (State).
	state WatchdogState
}

type watchdogDiag struct {
	name string
	fn   DiagFn
}

// NewWatchdog returns a watchdog that aborts after stallChecks consecutive
// checks (checkEvery cycles apart) without progress.
func NewWatchdog(checkEvery int64, stallChecks int) *Watchdog {
	if checkEvery <= 0 {
		panic("engine: watchdog check interval must be positive")
	}
	if stallChecks < 1 {
		stallChecks = 1
	}
	return &Watchdog{CheckEvery: checkEvery, StallChecks: stallChecks}
}

// Observe registers a progress probe.
func (w *Watchdog) Observe(fn ProgressFn) {
	w.progress = append(w.progress, fn)
}

// Diagnose registers a named component snapshot for the abort dump.
func (w *Watchdog) Diagnose(name string, fn DiagFn) {
	w.diags = append(w.diags, watchdogDiag{name: name, fn: fn})
}

// SetEventSink wires an instant-event sink (nil disables, the default); on
// abort the watchdog emits its diagnostic dump through it as structured
// fields.
func (w *Watchdog) SetEventSink(s EventSink) {
	w.sink = s
}

// check is called by the engine every CheckEvery cycles. It returns a
// *DeadlockError once StallChecks consecutive checks saw no progress.
func (w *Watchdog) check(now int64) error {
	var cur uint64
	for _, fn := range w.progress {
		cur += fn()
	}
	if !w.state.Primed || cur != w.state.Last {
		w.state.Primed = true
		w.state.Last = cur
		w.state.Stalled = 0
		return nil
	}
	w.state.Stalled++
	if w.state.Stalled < w.StallChecks {
		return nil
	}
	stallCycles := int64(w.state.Stalled) * w.CheckEvery
	if w.sink != nil {
		w.sink.Emit(now, "watchdog.abort", "engine", w.DumpArgs(now, stallCycles))
	}
	return &DeadlockError{
		Cycle:       now,
		StallCycles: stallCycles,
		Dump:        w.Dump(),
	}
}

// Dump renders the registered component snapshots, one line per component.
func (w *Watchdog) Dump() []string {
	out := make([]string, 0, len(w.diags))
	for _, d := range w.diags {
		out = append(out, fmt.Sprintf("%s: %s", d.name, d.fn()))
	}
	return out
}

// DumpArgs renders the abort diagnostics as structured fields: "cycle" and
// "stall_cycles" plus one entry per diagnosed component. This is the
// machine-readable twin of Dump, emitted as a telemetry instant event.
func (w *Watchdog) DumpArgs(now, stallCycles int64) map[string]string {
	args := make(map[string]string, len(w.diags)+2)
	args["cycle"] = fmt.Sprintf("%d", now)
	args["stall_cycles"] = fmt.Sprintf("%d", stallCycles)
	for _, d := range w.diags {
		args[d.name] = d.fn()
	}
	return args
}

// DeadlockError reports a run aborted by the watchdog: no component made
// progress for StallCycles cycles. Dump holds the per-component state
// snapshot taken at the abort point.
type DeadlockError struct {
	Cycle       int64
	StallCycles int64
	Dump        []string
}

// Error renders the diagnostic, one dump line per component.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: no progress for %d cycles (deadlock/livelock suspected), aborted at cycle %d",
		e.StallCycles, e.Cycle)
	for _, line := range e.Dump {
		b.WriteString("\n  ")
		b.WriteString(line)
	}
	return b.String()
}

// ctxPollEvery is how often (in cycles) RunContext polls the context. Coarse
// polling keeps the per-cycle overhead negligible while still bounding the
// cancellation latency to microseconds of wall-clock time.
const ctxPollEvery = 1024

// RunContext advances the simulation by up to n cycles under supervision:
// the context is polled periodically for cancellation or deadline expiry,
// and wd (when non-nil) aborts the run if it stops making progress. On early
// abort the engine keeps the cycles already simulated (Now reports how far
// the run got) so callers can still collect partial results.
func (e *Engine) RunContext(ctx context.Context, n int64, wd *Watchdog) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: run canceled at cycle %d: %w", e.clock.Now, err)
	}
	end := e.clock.Now + n
	ff := e.fastForward && e.allSources
	for e.clock.Now < end {
		if ff {
			// Cap each jump at the next watchdog checkpoint so supervision
			// observes the same cycle numbers as a single-stepped run: a
			// wedged simulation whose components all report NoEvent still
			// hits every checkpoint with frozen progress counters and aborts
			// at the identical cycle, while a healthy jump lands exactly on
			// the checkpoints it crosses (a skipped span has no progress by
			// construction, so checks there see what single-stepping would).
			// Checkpoint boundaries cap the jump the same way, so periodic
			// checkpoints land on their exact cycles even inside a quiescent
			// span.
			limit := end
			if wd != nil {
				if next := (e.clock.Now/wd.CheckEvery + 1) * wd.CheckEvery; next < limit {
					limit = next
				}
			}
			if e.ckptEvery > 0 {
				if next := (e.clock.Now/e.ckptEvery + 1) * e.ckptEvery; next < limit {
					limit = next
				}
			}
			if h := e.nextHorizon(limit); h > e.clock.Now {
				e.skipTo(h)
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("engine: run canceled at cycle %d: %w", e.clock.Now, err)
				}
				if wd != nil && e.clock.Now%wd.CheckEvery == 0 {
					if err := wd.check(e.clock.Now); err != nil {
						return err
					}
				}
				// Checkpoint after the boundary's watchdog check so the
				// captured supervision state includes it; a restored run
				// resumes with the next boundary, exactly like the original.
				if e.ckptFn != nil && e.clock.Now%e.ckptEvery == 0 {
					e.ckptFn(e.clock.Now)
				}
				continue
			}
		}
		e.Step()
		if e.clock.Now%ctxPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("engine: run canceled at cycle %d: %w", e.clock.Now, err)
			}
		}
		if wd != nil && e.clock.Now%wd.CheckEvery == 0 {
			if err := wd.check(e.clock.Now); err != nil {
				return err
			}
		}
		if e.ckptFn != nil && e.clock.Now%e.ckptEvery == 0 {
			e.ckptFn(e.clock.Now)
		}
	}
	return nil
}
