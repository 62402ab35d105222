package engine

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

// PipeItemState is one in-flight pipe item in checkpoint form: its delivery
// cycle and the image of its value.
type PipeItemState[S any] struct {
	ReadyAt int64
	Value   S
}

// SnapshotPipe images the pipe's in-flight items oldest-first.
func SnapshotPipe[T, S any](p *Pipe[T], image func(T) S) []PipeItemState[S] {
	out := make([]PipeItemState[S], 0, len(p.items))
	for _, it := range p.items {
		out = append(out, PipeItemState[S]{ReadyAt: it.readyAt, Value: image(it.value)})
	}
	return out
}

// RestorePipe rebuilds the pipe's in-flight items from a SnapshotPipe image,
// resolving each value. Existing items are discarded.
func RestorePipe[T, S any](p *Pipe[T], items []PipeItemState[S], resolve func(S) (T, error)) error {
	p.items = p.items[:0]
	for _, it := range items {
		v, err := resolve(it.Value)
		if err != nil {
			return err
		}
		p.items = append(p.items, pipeItem[T]{readyAt: it.ReadyAt, value: v})
	}
	return nil
}
