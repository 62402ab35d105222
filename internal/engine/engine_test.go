package engine

import (
	"context"
	"testing"
	"testing/quick"
)

type recorder struct {
	id    int
	log   *[]int
	ticks int64
}

func (r *recorder) Tick(now int64) {
	r.ticks++
	*r.log = append(*r.log, r.id)
}

func TestTickOrderIsRegistrationOrder(t *testing.T) {
	e := New()
	var log []int
	for i := 0; i < 5; i++ {
		e.Register(&recorder{id: i, log: &log})
	}
	e.Step()
	want := []int{0, 1, 2, 3, 4}
	for i, v := range want {
		if log[i] != v {
			t.Fatalf("tick order %v, want %v", log, want)
		}
	}
}

// run advances e by n cycles with neither cancellation nor a watchdog, so it
// cannot fail.
func run(e *Engine, n int64) { _ = e.RunContext(context.Background(), n, nil) }

func TestRunAdvancesClock(t *testing.T) {
	e := New()
	var log []int
	r := &recorder{log: &log}
	e.Register(r)
	run(e, 17)
	if e.Now() != 17 {
		t.Fatalf("Now=%d, want 17", e.Now())
	}
	if r.ticks != 17 {
		t.Fatalf("ticks=%d, want 17", r.ticks)
	}
}

func TestTickFuncSeesMonotonicClock(t *testing.T) {
	e := New()
	last := int64(-1)
	e.Register(TickFunc(func(now int64) {
		if now != last+1 {
			t.Fatalf("non-monotonic clock: %d after %d", now, last)
		}
		last = now
	}))
	run(e, 10)
}

// newQueue returns a queue of the given latency and capacity.
func newQueue[T any](latency int64, capacity int) *Queue[T] {
	q := new(Queue[T])
	*q = q.Renewed(latency, capacity)
	return q
}

func TestPipeLatency(t *testing.T) {
	p := newQueue[int](3, 0)
	if !p.Push(10, 42) {
		t.Fatal("push failed on unbounded queue")
	}
	for now := int64(10); now < 13; now++ {
		if _, ok := p.Pop(now); ok {
			t.Fatalf("item visible at %d before latency elapsed", now)
		}
		if r := p.NextReady(now); r != 13 {
			t.Fatalf("NextReady(%d) = %d, want 13", now, r)
		}
	}
	v, ok := p.Pop(13)
	if !ok || v != 42 {
		t.Fatalf("Pop(13) = %v,%v; want 42,true", v, ok)
	}
	if r := p.NextReady(13); r != NoEvent {
		t.Fatalf("NextReady of an empty queue = %d, want NoEvent", r)
	}
}

func TestPipeZeroLatency(t *testing.T) {
	var p Queue[string] // the zero queue: unbounded, latency 0
	p.Push(5, "x")
	if v, ok := p.Pop(5); !ok || v != "x" {
		t.Fatal("zero-latency queue should deliver same cycle")
	}
}

func TestPipeFIFO(t *testing.T) {
	p := newQueue[int](1, 0)
	for i := 0; i < 10; i++ {
		p.Push(0, i)
	}
	for i := 0; i < 10; i++ {
		v, ok := p.Pop(100)
		if !ok || v != i {
			t.Fatalf("pop %d = %v,%v", i, v, ok)
		}
	}
}

func TestPipeCapacity(t *testing.T) {
	p := newQueue[int](1, 2)
	if !p.Push(0, 1) || !p.Push(0, 2) {
		t.Fatal("pushes under capacity failed")
	}
	if p.Push(0, 3) {
		t.Fatal("push over capacity succeeded")
	}
	if p.Len() != 2 {
		t.Fatalf("Len() = %d after a refused push, want 2", p.Len())
	}
	p.Pop(10)
	if !p.Push(10, 3) {
		t.Fatal("push after pop failed")
	}
	p.PushAt(11, 4) // a taken-back item may exceed the capacity
	if p.Len() != 3 {
		t.Fatalf("Len() = %d after PushAt, want 3", p.Len())
	}
}

func TestPipePeekDoesNotConsume(t *testing.T) {
	p := newQueue[int](0, 0)
	p.Push(0, 7)
	if v := *p.At(0); v != 7 {
		t.Fatal("At(0) failed")
	}
	if p.Len() != 1 {
		t.Fatal("At consumed the item")
	}
	if v, ok := p.Pop(0); !ok || v != 7 {
		t.Fatal("pop after At failed")
	}
}

func TestPipeNegativeLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative latency did not panic")
		}
	}()
	newQueue[int](-1, 0)
}

// Property: every pushed item is popped exactly once, in order, and never
// before its ready time.
func TestPipeDeliveryProperty(t *testing.T) {
	f := func(latencies []uint8) bool {
		const lat = 4
		p := newQueue[int](lat, 0)
		now := int64(0)
		pushTimes := map[int]int64{}
		next := 0
		popped := 0
		for _, step := range latencies {
			now += int64(step % 3)
			p.Push(now, next)
			pushTimes[next] = now
			next++
			if v, ok := p.Pop(now); ok {
				if v != popped {
					return false // out of order
				}
				if now-pushTimes[v] < lat {
					return false // too early
				}
				popped++
			}
		}
		// Drain.
		now += 1000
		for {
			v, ok := p.Pop(now)
			if !ok {
				break
			}
			if v != popped {
				return false
			}
			popped++
		}
		return popped == next
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
