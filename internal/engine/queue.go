package engine

import "masksim/internal/slab"

// Queue is the model's one FIFO: a ring in which each item carries the cycle
// it becomes ready. Pop delivers the oldest item once its cycle has come, and
// items behind it wait even when ready sooner, as in a pipelined link or a
// bank queue. Push stamps an item latency cycles after the push; in a queue
// of latency 0 it is ready at once. A positive capacity bounds the items held,
// and a full queue refuses a Push, which is how back-pressure and queueing
// delay arise. A retry list is a queue of latency 0 drained by Offers.
//
// The zero Queue is empty, unbounded and of latency 0. Push and Pop are O(1).
type Queue[T any] struct {
	n, cap  int // first: a refused Push reads these two alone
	latency int64
	// The n items sit in one ring from head on, wrapping, whose length is
	// zero or a power of two: timed once an item has carried a ready cycle,
	// plain while every item is ready at cycle 0, so that a queue of latency
	// 0 spends no memory on cycles. At most one of the two is non-nil.
	head  int
	plain []T
	timed []queued[T]
}

type queued[T any] struct {
	ready int64
	v     T
}

// Renewed returns q emptied, with a latency and a capacity (0 = unbounded),
// over q's ring when that is small (slab.Grown, docs/MODEL.md §11): a
// constructor's and a Retire's one call.
func (q Queue[T]) Renewed(latency int64, capacity int) Queue[T] {
	if latency < 0 {
		panic("engine: negative queue latency")
	}
	plain, timed := slab.Grown(q.plain), slab.Grown(q.timed)
	return Queue[T]{latency: latency, cap: capacity, plain: plain[:cap(plain)], timed: timed[:cap(timed)]}
}

// Push appends v, ready latency cycles after now. It returns false, and
// leaves q as it was, when q is full.
func (q *Queue[T]) Push(now int64, v T) bool {
	if q.cap > 0 && q.n >= q.cap {
		return false
	}
	q.pushAfter(now, v) // a call, so that Push inlines into its callers
	return true
}

func (q *Queue[T]) pushAfter(now int64, v T) {
	if q.latency == 0 {
		q.PushAt(0, v)
	} else {
		q.PushAt(now+q.latency, v)
	}
}

// PushAt appends v ready at cycle ready, past the capacity if need be: it
// takes back an item that held a place a moment ago (a bank re-queueing the
// request it just popped), where a refusal would lose it.
func (q *Queue[T]) PushAt(ready int64, v T) {
	if timed := ready != 0 || q.timed != nil; q.n == q.mask()+1 || timed && q.timed == nil {
		q.grow(timed)
	}
	q.set((q.head+q.n)&q.mask(), ready, v)
	q.n++
}

// grow moves the items to the start of a new ring, timed or plain (where
// every item is ready at once), of the same size while the items leave room:
// 8 slots at first, and doubling, so a queue allocates no more often than
// append.
func (q *Queue[T]) grow(timed bool) {
	mask := q.mask()
	size := max(8, mask+1)
	if q.n == size {
		size *= 2
	}
	if timed {
		ring := make([]queued[T], size)
		for i := range q.n {
			ring[i].ready, ring[i].v = q.slot((q.head + i) & mask)
		}
		q.plain, q.timed = nil, ring
	} else {
		ring := make([]T, size)
		for i := range q.n {
			_, ring[i] = q.slot((q.head + i) & mask)
		}
		q.plain, q.timed = ring, nil
	}
	q.head = 0
}

func (q *Queue[T]) mask() int {
	if q.timed != nil {
		return len(q.timed) - 1
	}
	return len(q.plain) - 1
}

// slot returns the ready cycle and the item in ring slot s.
func (q *Queue[T]) slot(s int) (int64, T) {
	if q.timed != nil {
		return q.timed[s].ready, q.timed[s].v
	}
	return 0, q.plain[s]
}

// set puts an item in ring slot s; a plain ring keeps no cycle.
func (q *Queue[T]) set(s int, ready int64, v T) {
	if q.timed != nil {
		q.timed[s] = queued[T]{ready: ready, v: v}
	} else {
		q.plain[s] = v
	}
}

// Pop removes and returns the oldest item if it is ready at cycle now.
func (q *Queue[T]) Pop(now int64) (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	ready, v := q.slot(q.head)
	if ready > now {
		return zero, false
	}
	q.set(q.head, 0, zero) // the ring holds no reference to what left it
	q.head = (q.head + 1) & q.mask()
	q.n--
	return v, true
}

// Offers starts a retry list's pass over a consumer that may have room
// again: the caller offers each item of Items, oldest first and ready or
// not, Keeps each one the consumer refuses, in the order offered, and ends
// the pass with Done. The items not kept leave; the kept ones stay in their
// order, ready at once. Nothing may push to q until Done. (The caller makes
// the offers, so that in a retry storm each is one direct call.)
func (q *Queue[T]) Offers() Offers[T] {
	if q.timed != nil || q.head+q.n > len(q.plain) {
		q.grow(false) // one plain run of items from the ring's start
	}
	return Offers[T]{q: q, Items: q.plain[q.head : q.head+q.n]}
}

// Offers is one pass of Queue.Offers, a value its caller keeps on its
// stack.
type Offers[T any] struct {
	q     *Queue[T]
	Items []T // to offer, oldest first
	kept  int
}

// Keep keeps v, the item of Items the consumer has just refused.
func (o *Offers[T]) Keep(v T) {
	o.Items[o.kept] = v
	o.kept++
}

// Done ends the pass: the queue holds the kept items.
func (o *Offers[T]) Done() {
	clear(o.Items[o.kept:])
	o.q.n = o.kept
}

// NextReady returns the earliest cycle >= now at which Pop could deliver an
// item, or NoEvent when q is empty.
func (q *Queue[T]) NextReady(now int64) int64 {
	if q.n == 0 {
		return NoEvent
	}
	ready, _ := q.slot(q.head)
	return max(now, ready)
}

// Len returns the number of items held, ready or not.
func (q *Queue[T]) Len() int { return q.n }

// At returns the i-th oldest item, 0 <= i < Len(), ready or not, where it
// sits: a holder may change it in place until the next Push or Pop.
func (q *Queue[T]) At(i int) *T {
	s := (q.head + i) & q.mask()
	if q.timed != nil {
		return &q.timed[s].v
	}
	return &q.plain[s]
}
