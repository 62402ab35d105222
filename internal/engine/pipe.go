package engine

import "masksim/internal/slab"

// Pipe is a bounded FIFO in which each item becomes visible to the consumer
// only after a fixed latency. It models a pipelined, fixed-latency link such
// as a cache port or an interconnect hop: the producer Pushes at cycle t, the
// consumer can Pop the item at cycle t+latency or later. Capacity bounds the
// number of in-flight items; a full Pipe exerts back-pressure (Push returns
// false), which is how queueing delay emerges in the simulator.
type Pipe[T any] struct {
	latency int64
	cap     int
	items   []pipeItem[T]
	// stall, when non-nil and true at now, freezes the consumer side: Pop
	// and Peek deliver nothing while the hook holds. Fault injection uses it
	// to wedge a link and prove the watchdog fires; the producer side still
	// accepts items until capacity exerts back-pressure.
	stall func(now int64) bool
}

type pipeItem[T any] struct {
	readyAt int64
	value   T
}

// NewPipe returns a Pipe with the given latency (cycles) and capacity.
// A capacity of 0 means unbounded.
func NewPipe[T any](latency int64, capacity int) *Pipe[T] {
	return RenewPipe[T](nil, latency, capacity)
}

// RenewPipe is NewPipe built in place over a donor, keeping only its item
// buffer's capacity (docs/MODEL.md §11). A nil donor allocates.
func RenewPipe[T any](p *Pipe[T], latency int64, capacity int) *Pipe[T] {
	if latency < 0 {
		panic("engine: negative pipe latency")
	}
	p, d := slab.Lift(p)
	*p = Pipe[T]{latency: latency, cap: capacity, items: slab.Slice(d.items, 0)}
	return p
}

// Push inserts v at cycle now. It returns false if the pipe is full.
func (p *Pipe[T]) Push(now int64, v T) bool {
	if p.cap > 0 && len(p.items) >= p.cap {
		return false
	}
	p.items = append(p.items, pipeItem[T]{readyAt: now + p.latency, value: v})
	return true
}

// SetStallHook installs a fault-injection hook that freezes the consumer
// side of the pipe whenever it returns true. Pass nil to clear.
func (p *Pipe[T]) SetStallHook(fn func(now int64) bool) {
	p.stall = fn
}

// Pop removes and returns the oldest item if it is ready at cycle now.
func (p *Pipe[T]) Pop(now int64) (T, bool) {
	var zero T
	if p.stall != nil && p.stall(now) {
		return zero, false
	}
	if len(p.items) == 0 || p.items[0].readyAt > now {
		return zero, false
	}
	v := p.items[0].value
	// Shift rather than reslice so the backing array does not grow without
	// bound over a long simulation.
	copy(p.items, p.items[1:])
	p.items = p.items[:len(p.items)-1]
	return v, true
}

// Peek returns the oldest item without removing it, if ready at cycle now.
func (p *Pipe[T]) Peek(now int64) (T, bool) {
	var zero T
	if p.stall != nil && p.stall(now) {
		return zero, false
	}
	if len(p.items) == 0 || p.items[0].readyAt > now {
		return zero, false
	}
	return p.items[0].value, true
}

// NextReady returns the earliest cycle >= now at which a Pop could deliver an
// item: now if the head is already ready, the head's arrival cycle otherwise,
// NoEvent if the pipe is empty. With a stall hook installed it returns now —
// the hook's future answers are unknowable, so the consumer must be ticked
// every cycle (fault-injection runs trade fast-forward for the hook).
func (p *Pipe[T]) NextReady(now int64) int64 {
	if p.stall != nil {
		return now
	}
	if len(p.items) == 0 {
		return NoEvent
	}
	if r := p.items[0].readyAt; r > now {
		return r
	}
	return now
}

// Len returns the number of in-flight items (ready or not).
func (p *Pipe[T]) Len() int {
	return len(p.items)
}

// Full reports whether a Push at this moment would fail.
func (p *Pipe[T]) Full() bool {
	return p.cap > 0 && len(p.items) >= p.cap
}
