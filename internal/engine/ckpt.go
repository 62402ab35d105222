package engine

import "fmt"

// ClockState is the engine's clock and its own checkpoint image: the tick/skip
// split behind Results.CyclesTicked/CyclesSkipped, whose sum is the cycle.
type ClockState struct {
	// Ticked counts cycles advanced by Step (every component ticked);
	// Skipped counts cycles covered by fast-forward jumps.
	Ticked  int64
	Skipped int64
}

// Clock captures the engine's clock state.
func (e *Engine) Clock() ClockState { return e.clock }

// SetClock restores the engine's clock state; the cycle is its sum.
func (e *Engine) SetClock(st ClockState) { e.clock, e.now = st, st.Ticked+st.Skipped }

// SetCheckpointHook installs fn to be invoked at every cycle boundary that
// is a multiple of every, at the same supervision points as watchdog checks
// (after a step or a fast-forward landing). Fast-forward jumps are capped at
// the next such boundary, so checkpoints land on exact cycles even inside an
// otherwise quiescent span. every <= 0 (the default) removes the hook; the
// hot loop then carries no extra work beyond one nil check.
func (e *Engine) SetCheckpointHook(every int64, fn func(now int64)) {
	if every <= 0 || fn == nil {
		e.ckptEvery, e.ckptFn = 0, nil
		return
	}
	e.ckptEvery, e.ckptFn = every, fn
}

// WatchdogState is the watchdog's progress tracking and its checkpoint
// image: the probe sum at the last check, whether a check has run, and how
// many checks in a row saw no progress. Restoring it onto a fresh watchdog
// with the same probes makes supervision resume exactly where it left off.
// The image of a watchdog that has reached its stall limit (a crash dump's)
// is evidence, not a resume point: the simulator refuses to restore it.
type WatchdogState struct {
	Last    uint64
	Primed  bool
	Stalled int
}

// State captures the watchdog's progress-tracking state.
func (w *Watchdog) State() WatchdogState { return w.state }

// SetState restores the watchdog's progress-tracking state.
func (w *Watchdog) SetState(st WatchdogState) { w.state = st }

// QueueItem is one queued item in checkpoint form: its ready cycle and the
// image of its value.
type QueueItem[S any] struct {
	Ready int64
	Value S
}

// SnapshotQueue images the queue's items oldest-first.
func SnapshotQueue[T, S any](q *Queue[T], image func(T) S) []QueueItem[S] {
	out := make([]QueueItem[S], q.n)
	for i := range out {
		ready, v := q.slot((q.head + i) & q.mask())
		out[i] = QueueItem[S]{Ready: ready, Value: image(v)}
	}
	return out
}

// RestoreQueue fills a new, empty queue with a SnapshotQueue image's items,
// resolving each in order. The image was taken at cycle now, so the tick of
// cycle now-1 pushed its newest item at the latest, and no item is ready past
// now-1+latency; in a queue of latency 0, which stamps a Push ready at 0, a
// bank that takes back the request it just popped makes it ready one cycle on
// (PushAt(now+1)), so no item is ready past now. An image past the capacity,
// or with an item ready before cycle 0 or past that bound, is rejected before
// any item is resolved, for the holder to prefix with the queue's name.
func RestoreQueue[T, S any](q *Queue[T], now int64, items []QueueItem[S], resolve func(S) (T, error)) error {
	if q.cap > 0 && len(items) > q.cap {
		return fmt.Errorf("queues %d requests, capacity is %d", len(items), q.cap)
	}
	last := now - 1 + max(q.latency, 1)
	for i, it := range items {
		if it.Ready < 0 || it.Ready > last {
			return fmt.Errorf("item %d is ready at cycle %d, not in [0, %d]", i, it.Ready, last)
		}
	}
	for i, it := range items {
		v, err := resolve(it.Value)
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		q.PushAt(it.Ready, v)
	}
	return nil
}
