package engine

import "fmt"

// Snapshotter is the optional checkpoint capability of a Ticker, the third
// sibling of EventSource and Skipper: a component that can serialize its
// complete mutable state into a self-contained, encodable value and later
// restore it onto a freshly built instance.
//
// ctx is an orchestration context supplied by the simulator (it carries the
// request registry used to serialize cross-component request pointers);
// components that hold no requests may ignore it. SnapshotState must return
// a value encodable by encoding/gob whose concrete type the simulator
// registers; RestoreState receives a value of the same concrete type.
//
// Contract: restoring a state captured between two cycles onto a component
// built from the identical configuration must make every subsequent tick
// bit-identical to the uninterrupted run. In-flight work names where it
// returns as data (docs/MODEL.md §9), so a component's state plus the request
// registry is everything there is to restore.
type Snapshotter interface {
	SnapshotState(ctx any) (any, error)
	RestoreState(ctx any, state any) error
}

// SnapshotStates captures the state of every snapshot-capable ticker, keyed
// by registration index. Tickers without the capability (stateless adapters)
// are simply absent from the map.
func (e *Engine) SnapshotStates(ctx any) (map[int]any, error) {
	out := make(map[int]any, len(e.snapshotters))
	for i, s := range e.snapshotters {
		if s == nil {
			continue
		}
		st, err := s.SnapshotState(ctx)
		if err != nil {
			return nil, fmt.Errorf("engine: snapshot ticker %d: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}

// RestoreStates applies previously captured states onto the registered
// tickers, in registration order. Every keyed index must name a
// snapshot-capable ticker; the tick list must be built identically to the
// run that captured the states. A state keyed past the registered tickers is
// rejected loudly — it means the capturing run registered tickers this
// simulator did not (e.g. a fault plan), which would otherwise silently
// shift or drop component states.
func (e *Engine) RestoreStates(ctx any, states map[int]any) error {
	for i := range states {
		if i < 0 || i >= len(e.tickers) {
			return fmt.Errorf("engine: restore: checkpoint carries state for ticker %d, but only %d tickers are registered (the restoring simulator must register the same tick list as the checkpointing one)", i, len(e.tickers))
		}
	}
	for i := range e.tickers {
		st, ok := states[i]
		if !ok {
			continue
		}
		if i >= len(e.snapshotters) || e.snapshotters[i] == nil {
			return fmt.Errorf("engine: restore: ticker %d has state but no Snapshotter capability", i)
		}
		if err := e.snapshotters[i].RestoreState(ctx, st); err != nil {
			return fmt.Errorf("engine: restore ticker %d: %w", i, err)
		}
	}
	return nil
}

// ClockState is the engine's own checkpoint image: the clock and the
// tick/skip split behind Results.CyclesTicked/CyclesSkipped.
type ClockState struct {
	Now     int64
	Ticked  int64
	Skipped int64
}

// Clock captures the engine's clock state.
func (e *Engine) Clock() ClockState {
	return ClockState{Now: e.now, Ticked: e.ticked, Skipped: e.skipped}
}

// SetClock restores the engine's clock state.
func (e *Engine) SetClock(st ClockState) {
	e.now, e.ticked, e.skipped = st.Now, st.Ticked, st.Skipped
}

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

// WatchdogState is the watchdog's checkpoint image. Restoring it onto a
// fresh watchdog with the same probes makes supervision resume exactly where
// it left off — including a watchdog that had already tripped, which
// re-raises its DeadlockError at the restored cycle (crash checkpoints).
type WatchdogState struct {
	Last    uint64
	Primed  bool
	Stalled int
}

// State captures the watchdog's progress-tracking state.
func (w *Watchdog) State() WatchdogState {
	return WatchdogState{Last: w.last, Primed: w.primed, Stalled: w.stalled}
}

// SetState restores the watchdog's progress-tracking state.
func (w *Watchdog) SetState(st WatchdogState) {
	w.last, w.primed, w.stalled = st.Last, st.Primed, st.Stalled
}

// Tripped reports whether the watchdog has already declared the run wedged
// (only possible on a watchdog restored from a crash checkpoint).
func (w *Watchdog) Tripped() bool {
	return w.stalled >= w.StallChecks
}

// TripError rebuilds the DeadlockError for a tripped watchdog at cycle now.
// The diagnostic dump is regenerated from current component state, which for
// a restored crash checkpoint is exactly the state at the original abort.
func (w *Watchdog) TripError(now int64) *DeadlockError {
	return &DeadlockError{
		Cycle:       now,
		StallCycles: int64(w.stalled) * w.CheckEvery,
		Dump:        w.Dump(),
	}
}

// PipeItemRef is one in-flight pipe item in serialized form: its delivery
// cycle plus a caller-defined reference to the value (typically a request
// registry index).
type PipeItemRef struct {
	ReadyAt int64
	Ref     int32
}

// SnapshotRefs serializes the pipe's in-flight items oldest-first, mapping
// each value through ref.
func SnapshotRefs[T any](p *Pipe[T], ref func(T) int32) []PipeItemRef {
	out := make([]PipeItemRef, 0, len(p.items))
	for _, it := range p.items {
		out = append(out, PipeItemRef{ReadyAt: it.readyAt, Ref: ref(it.value)})
	}
	return out
}

// RestoreRefs rebuilds the pipe's in-flight items from a SnapshotRefs image,
// resolving each reference through deref. Existing items are discarded.
func RestoreRefs[T any](p *Pipe[T], items []PipeItemRef, deref func(int32) T) {
	p.items = p.items[:0]
	for _, it := range items {
		p.items = append(p.items, pipeItem[T]{readyAt: it.ReadyAt, value: deref(it.Ref)})
	}
}
