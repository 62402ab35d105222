package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refItem is the reference model's item: a plain slice of these, oldest
// first, is what a Queue must behave as.
type refItem struct {
	ready int64
	v     int
}

// driveQueue interprets prog as a sequence of two-byte (op, arg) steps applied
// to a Queue of the given latency and capacity and to a plain-slice model, and
// asserts after every step that both hold the same items in the same order
// with the same ready cycles, and that Len, At and NextReady agree.
func driveQueue(t *testing.T, latency int64, capacity int, prog []byte) {
	t.Helper()
	q := newQueue[int](latency, capacity)
	var ref []refItem
	now, next := int64(0), 1 // no item is the zero value a vacated slot holds
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step]%8, prog[step+1]
		switch op {
		case 0, 1: // push
			ok := q.Push(now, next)
			if want := capacity == 0 || len(ref) < capacity; ok != want {
				t.Fatalf("step %d: Push = %v with %d of %d held", step, ok, len(ref), capacity)
			}
			if ok && latency > 0 {
				ref = append(ref, refItem{now + latency, next})
			} else if ok {
				ref = append(ref, refItem{0, next}) // ready at once
			}
			next++
		case 2: // take back past the capacity
			q.PushAt(now+int64(arg%4), next)
			ref = append(ref, refItem{now + int64(arg%4), next})
			next++
		case 3: // pop
			v, ok := q.Pop(now)
			want := len(ref) > 0 && ref[0].ready <= now
			if ok != want || (ok && v != ref[0].v) {
				t.Fatalf("step %d: Pop(%d) = %d,%v, reference head %v", step, now, v, ok, ref)
			}
			if ok {
				ref = ref[1:]
			}
		case 4: // a retry pass: arg's bits, cycled, say which offers are taken
			var offered []int
			pass := q.Offers()
			for _, v := range pass.Items {
				offered = append(offered, v)
				if arg>>(len(offered)%8)&1 == 0 {
					pass.Keep(v)
				}
			}
			pass.Done()
			var kept []refItem
			for k, it := range ref {
				if k >= len(offered) || offered[k] != it.v {
					t.Fatalf("step %d: the pass offered %v, reference %v", step, offered, ref)
				}
				if arg>>((k+1)%8)&1 == 0 {
					kept = append(kept, refItem{0, it.v}) // ready at once
				}
			}
			if len(offered) != len(ref) {
				t.Fatalf("step %d: the pass offered %d items, reference holds %d", step, len(offered), len(ref))
			}
			ref = kept
		case 5: // advance the clock
			now += int64(arg % 8)
		case 6: // snapshot, restore into a queue renewed over a donor
			img := SnapshotQueue(q, func(v int) int { return v })
			donor := newQueue[int](0, 0)
			for k := 0; k < int(arg%20); k++ {
				donor.Push(0, -1)
			}
			*donor = donor.Renewed(latency, capacity)
			if donor.Len() != 0 {
				t.Fatalf("step %d: a renewed queue holds %d items", step, donor.Len())
			}
			if err := RestoreQueue(donor, img, func(v int) (int, error) { return v, nil }); err != nil {
				if !(capacity > 0 && len(ref) > capacity) {
					t.Fatalf("step %d: restore: %v", step, err)
				}
				// PushAt went past the capacity; a restore rejects that image.
				if want := fmt.Sprintf("queues %d requests, capacity is %d", len(ref), capacity); err.Error() != want {
					t.Fatalf("step %d: restore of %d items: %v, want %q", step, len(ref), err, want)
				}
				continue
			}
			q = donor
		case 7: // indexed access and the horizon
			if len(ref) > 0 {
				k := int(arg) % len(ref)
				if v := *q.At(k); v != ref[k].v {
					t.Fatalf("step %d: At(%d) = %d, reference %d", step, k, v, ref[k].v)
				}
			}
		}

		if q.Len() != len(ref) {
			t.Fatalf("step %d (op %d): Len() = %d, reference %d", step, op, q.Len(), len(ref))
		}
		var got []refItem
		for _, it := range SnapshotQueue(q, func(v int) int { return v }) {
			got = append(got, refItem{it.Ready, it.Value})
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("step %d (op %d): queue %v, reference %v", step, op, got, ref)
		}
		checkVacated(t, q)
		want := NoEvent
		if len(ref) > 0 {
			want = max(now, ref[0].ready)
		}
		if r := q.NextReady(now); r != want {
			t.Fatalf("step %d: NextReady(%d) = %d, reference %d", step, now, r, want)
		}
	}
}

// checkVacated fails unless every ring slot outside the live items holds the
// zero item: a queue keeps no reference to what left it.
func checkVacated[T comparable](t *testing.T, q *Queue[T]) {
	t.Helper()
	if q.plain != nil && q.timed != nil {
		t.Fatal("the queue has two rings")
	}
	var zero T
	for i := q.n; i <= q.mask(); i++ {
		s := (q.head + i) & q.mask()
		if ready, v := q.slot(s); ready != 0 || v != zero {
			t.Fatalf("vacated ring slot %d holds %v ready at %d", s, v, ready)
		}
	}
}

// TestQueueMatchesSlice drives a queue and a plain slice with the same seeded
// push/pop sequence: same order, nothing but the live entries reachable from
// the ring, and a ring that follows the high-water mark rather than the
// number of pushes.
func TestQueueMatchesSlice(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	var q Queue[*int]
	var ref []*int
	maxLive := 0
	for op := 0; op < 20000; op++ {
		// Long fill phases alternate with long drain phases, with jitter.
		if fill := op/500%2 == 0; len(ref) == 0 || rnd.Intn(10) < map[bool]int{true: 7, false: 3}[fill] {
			v := new(int)
			*v = op
			q.Push(int64(op), v)
			ref = append(ref, v)
		} else {
			if got, _ := q.Pop(int64(op)); got != ref[0] {
				t.Fatalf("op %d: popped %d, want %d", op, *got, *ref[0])
			}
			ref = ref[1:]
		}
		maxLive = max(maxLive, len(ref))
		if q.Len() != len(ref) {
			t.Fatalf("op %d: queue holds %d entries, reference %d", op, q.Len(), len(ref))
		}
		for i, v := range ref {
			if *q.At(i) != v {
				t.Fatalf("op %d: entry %d differs from the reference", op, i)
			}
		}
		checkVacated(t, &q)
	}
	if q.mask()+1 > 2*maxLive {
		t.Fatalf("ring of %d slots after a high-water mark of %d live entries", q.mask()+1, maxLive)
	}
}

// queueShapes are the (latency, capacity) pairs the fuzzer drives.
var queueShapes = []struct {
	latency  int64
	capacity int
}{{0, 0}, {3, 0}, {1, 2}, {10, 9}, {0, 64}}

func FuzzQueue(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 0, 3, 0, 4, 0x55, 6, 3, 3, 0})
	f.Add(uint8(2), []byte{0, 0, 0, 0, 0, 0, 2, 1, 6, 0, 5, 7, 3, 0, 7, 1})
	f.Add(uint8(3), []byte("\x00\x00\x01\x00\x05\x09\x03\x00\x04\xaa\x06\x05\x07\x02"))
	long := make([]byte, 4000)
	rand.New(rand.NewSource(7)).Read(long)
	f.Add(uint8(1), long)
	f.Fuzz(func(t *testing.T, shape uint8, prog []byte) {
		s := queueShapes[int(shape)%len(queueShapes)]
		driveQueue(t, s.latency, s.capacity, prog)
	})
}

func TestRestoreQueueRejectsBeforeResolving(t *testing.T) {
	q := newQueue[int](0, 2)
	img := []QueueItem[int]{{Value: 1}, {Value: 2}, {Value: 3}}
	resolved := 0
	err := RestoreQueue(q, img, func(v int) (int, error) { resolved++; return v, nil })
	if err == nil || err.Error() != "queues 3 requests, capacity is 2" {
		t.Fatalf("restore of 3 items into capacity 2: %v", err)
	}
	if resolved != 0 {
		t.Fatalf("restore resolved %d items of an image it rejects", resolved)
	}
}

func TestQueueSteadyStateAllocs(t *testing.T) {
	q := newQueue[*int](0, 0) // a retry list
	x := new(int)
	now := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			now++
			q.Push(now, x)
			pass := q.Offers()
			for _, v := range pass.Items {
				if now%3 != 0 {
					pass.Keep(v)
				}
			}
			pass.Done()
			q.Pop(now)
		}
	})
	if allocs != 0 {
		t.Fatalf("push/retry pass/pop allocated %v objects per run, want 0", allocs)
	}
}
